package paper

import "gputopdown/internal/gpu"

// A Claim is one sentence of §V as a predicate over the tables the golden
// corpus yields. Holds is false for a documented deviation (EXPERIMENTS.md):
// the corpus contradicts the paper there and Check asserts what it measures,
// so a model change that reproduces the paper flips the row visibly.
type Claim struct {
	Fig, Sentence string
	Holds         bool
	Check         func(Source) bool
}

// Verdict is "holds" or "documented deviation" while Check is true, and
// "fails" otherwise.
func (cl Claim) Verdict(src Source) string {
	switch {
	case !cl.Check(src):
		return "fails"
	case cl.Holds:
		return "holds"
	}
	return "documented deviation"
}

// at reads one cell of table i of a figure computed from src.
func at(src Source, fig string, i int, label, col string) float64 {
	return Figure(fig, src)[i].At(label, col)
}

// Claims lists §V's checkable claims, in figure order.
var Claims = []Claim{
	{"Table IX", "The GTX 1070 has 15 SMs, the Quadro RTX 4000 36.", true, func(Source) bool {
		g, _ := gpu.Lookup("gtx1070")
		q, _ := gpu.Lookup("rtx4000")
		sms := Table9(g, q).Rows[3]
		return sms.Label == "SMs" && sms.Text[0] == "15" && sms.Text[1] == "36"
	}},
	{"Fig 4", "Performance clearly degrades as the tile size shrinks.", true, func(s Source) bool {
		return at(s, "4", 0, "binaryPartitionCG_tile4", "retire%") < at(s, "4", 0, "binaryPartitionCG_tile32", "retire%")
	}},
	{"Fig 4", "Memory becomes the bottleneck as tiles shrink.", true, func(s Source) bool {
		return at(s, "4", 1, "binaryPartitionCG_tile4", "memory%") > at(s, "4", 1, "binaryPartitionCG_tile32", "memory%")
	}},
	{"Fig 5", "Pascal loses more in its frontend than Turing.", true, func(s Source) bool {
		return at(s, "5", 0, "AVERAGE", "frontend%") > at(s, "5", 1, "AVERAGE", "frontend%")
	}},
	// The paper's Turing backend exceeds Pascal's; here it is 46.7 % to 55.0 %.
	{"Fig 5", "Turing's frontend gain does not become performance because its backend degrades more.", false, func(s Source) bool {
		return at(s, "5", 1, "AVERAGE", "backend%") < at(s, "5", 0, "AVERAGE", "backend%")
	}},
	{"Fig 6", "Memory is about 70 % of the overall IPC loss on average.", true, func(s Source) bool {
		return at(s, "6", 0, "AVERAGE", "memory%") >= 0.4
	}},
	{"Fig 7", "L1 dominates the constant cache on average.", true, func(s Source) bool {
		return at(s, "7", 0, "AVERAGE", "long_scoreboard%") > at(s, "7", 0, "AVERAGE", "imc_miss%")
	}},
	{"Fig 7", "myocyte bottlenecks on constant memory.", true, func(s Source) bool {
		return at(s, "7", 0, "myocyte", "imc_miss%") >= 0.25
	}},
	{"Fig 8", "The backend dominates, ahead of the frontend and divergence.", true, func(s Source) bool {
		be := at(s, "8", 0, "AVERAGE", "backend%")
		return be > at(s, "8", 0, "AVERAGE", "frontend%") && be > at(s, "8", 0, "AVERAGE", "divergence%")
	}},
	{"Fig 9", "Memory dominates the IPC loss, as in Rodinia.", true, func(s Source) bool {
		return at(s, "9", 0, "AVERAGE", "memory%") >= 0.4
	}},
	{"Fig 10", "The ML apps (cnn, lstm) are constant-cache bound.", true, func(s Source) bool {
		return at(s, "10", 0, "cnn", "imc_miss%") >= 0.25 && at(s, "10", 0, "lstm", "imc_miss%") >= 0.25
	}},
	{"Fig 10", "Altis presses the constant cache harder than Rodinia.", true, func(s Source) bool {
		return at(s, "10", 0, "AVERAGE", "imc_miss%") > at(s, "7", 0, "AVERAGE", "imc_miss%")
	}},
	// The paper's constant cache leads Altis on average; here L1 still does,
	// 38.7 % to 11.9 %: only the ML apps are constant-bound.
	{"Fig 10", "The constant cache becomes the main contributor on average.", false, func(s Source) bool {
		return at(s, "10", 0, "AVERAGE", "long_scoreboard%") > at(s, "10", 0, "AVERAGE", "imc_miss%")
	}},
	{"Fig 13", "The level-3 metric set needs 8 passes per kernel.", true, func(s Source) bool {
		n := 0
		for _, suite := range []string{"rodinia", "altis"} {
			for _, r := range s("rtx4000", suite) {
				if r.Passes != 8 {
					return false
				}
				n++
			}
		}
		return n > 0
	}},
	{"Fig 13", "Level-3 profiling costs about 13x native execution on average.", true, func(s Source) bool {
		x := at(s, "13", 0, "AVERAGE", "overhead_x")
		return x >= 8 && x <= 30
	}},
}
