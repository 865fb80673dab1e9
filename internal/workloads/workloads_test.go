package workloads

import (
	"testing"

	"gputopdown/internal/gpu"
	"gputopdown/internal/kernel"
	"gputopdown/internal/sim"
	"gputopdown/internal/sm"
)

func TestSuiteRegistry(t *testing.T) {
	if len(Rodinia()) < 18 {
		t.Errorf("Rodinia has %d apps", len(Rodinia()))
	}
	if len(Altis()) < 15 {
		t.Errorf("Altis has %d apps", len(Altis()))
	}
	if len(SHOC()) < 12 {
		t.Errorf("SHOC has %d apps", len(SHOC()))
	}
	if len(CUDASamples()) != len(BinaryPartitionTileSizes) {
		t.Errorf("CUDASamples has %d apps", len(CUDASamples()))
	}
	for _, s := range Suites() {
		apps := BySuite(s)
		if len(apps) == 0 {
			t.Errorf("suite %s empty", s)
		}
		seen := map[string]bool{}
		for _, a := range apps {
			if a.Suite != s {
				t.Errorf("%s listed under %s", a.ID(), s)
			}
			if a.Description == "" {
				t.Errorf("%s has no description", a.ID())
			}
			if seen[a.Name] {
				t.Errorf("duplicate app %s in %s", a.Name, s)
			}
			seen[a.Name] = true
		}
	}
	if _, ok := Lookup("rodinia", "bfs"); !ok {
		t.Error("rodinia/bfs not found")
	}
	if _, ok := Lookup("nope", "bfs"); ok {
		t.Error("bogus suite found")
	}
	if _, ok := Lookup("rodinia", "nope"); ok {
		t.Error("bogus app found")
	}
	if BySuite("nope") != nil {
		t.Error("bogus suite returned apps")
	}
}

func TestSeedStability(t *testing.T) {
	if seedFor("rodinia/bfs") != seedFor("rodinia/bfs") {
		t.Error("seed not stable")
	}
	if seedFor("rodinia/bfs") == seedFor("altis/bfs") {
		t.Error("seeds collide across suites")
	}
	// The seed feeds every input, and so the golden reports.
	if got := seedFor("rodinia/bfs"); got != 4636857899926823973 {
		t.Errorf("seedFor(rodinia/bfs) = %d, want the recorded 4636857899926823973", got)
	}
}

// Characterisation checks that the suite members show the microarchitectural
// signatures the paper relies on.
func TestCharacterisationSignatures(t *testing.T) {
	// run executes an app natively on a 4-SM RTX 4000 and returns its
	// counters summed over every launch.
	run := func(a *App) sm.Counters {
		dev := sim.NewDevice(gpu.QuadroRTX4000().WithSMs(4))
		var total sm.Counters
		err := a.Execute(dev, func(l *kernel.Launch) error {
			res, err := dev.Launch(l)
			if err != nil {
				return err
			}
			total.Add(&res.Counters)
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", a.ID(), err)
		}
		return total
	}
	get := func(suite, name string) sm.Counters {
		a, ok := Lookup(suite, name)
		if !ok {
			t.Fatalf("%s/%s missing", suite, name)
		}
		return run(a)
	}

	// myocyte and nn: IMC misses must be substantial (constant pressure).
	for _, name := range []string{"myocyte", "nn"} {
		c := get("rodinia", name)
		if c.IMCMisses < c.IMCHits/8 {
			t.Errorf("rodinia/%s: IMC misses %d vs hits %d — constant pressure missing",
				name, c.IMCMisses, c.IMCHits)
		}
	}
	// kmeans keeps its centroid table resident: high IMC hit rate.
	if c := get("rodinia", "kmeans"); c.IMCMisses*20 > c.IMCHits {
		t.Errorf("rodinia/kmeans: IMC miss rate too high (%d misses / %d hits)",
			c.IMCMisses, c.IMCHits)
	}
	// bfs diverges.
	if c := get("rodinia", "bfs"); c.DivergentBranches == 0 {
		t.Error("rodinia/bfs shows no divergence")
	}
	// binaryPartitionCG: smaller tiles -> more atomics.
	c32, c4 := run(BinaryPartitionCG(32)), run(BinaryPartitionCG(4))
	if c4.Atomics <= c32.Atomics {
		t.Errorf("tile4 atomics %d <= tile32 atomics %d", c4.Atomics, c32.Atomics)
	}
}
