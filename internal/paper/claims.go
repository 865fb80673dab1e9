package paper

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

// phase averages column col of Fig. 11 or 12 over the first quarter of the
// kernel's invocations (phase 1) or, when late, over the last quarter
// (phase 2); NaN (0/0) without invocations.
func phase(src Source, fig, col string, late bool) float64 {
	t := Figure(fig, src)[0]
	q, sum := len(t.Rows)/4, 0.0
	rows := t.Rows[:q]
	if late {
		rows = t.Rows[len(t.Rows)-q:]
	}
	for _, r := range rows {
		sum += t.At(r.Label, col)
	}
	return sum / float64(q)
}

// shift is the change of column col of Fig. 11 or 12 from phase 1 to phase 2.
func shift(src Source, fig, col string) float64 {
	return phase(src, fig, col, true) - phase(src, fig, col, false)
}

// Claims lists §V's checkable claims, in figure order.
var Claims = []Claim{
	{"Table IX", "The GTX 1070 has 15 SMs, the Quadro RTX 4000 36.", true, func(s Source) bool {
		sms := Figure("table9", s)[0].Rows[3]
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
	{"Figs 11/12", "Phase 1 is backend-dominated.", true, func(s Source) bool {
		return phase(s, "11", "backend%", false) > phase(s, "11", "retire%", false) &&
			phase(s, "12", "backend%", false) > phase(s, "12", "retire%", false)
	}},
	{"Figs 11/12", "The Top-Down metrics move between the phases: retire falls.", true, func(s Source) bool {
		return shift(s, "11", "retire%") < 0 && shift(s, "12", "retire%") < 0
	}},
	// The paper's srad_cuda_1 is heavier in phase 1; here its invocations
	// take 1 819 cycles in phase 1 and 2 101 in phase 2.
	{"Fig 11", "Phase 1 is the heavier phase.", false, func(s Source) bool { return shift(s, "11", "cycles") > 0 }},
	{"Fig 12", "Phase 1 is the heavier phase.", true, func(s Source) bool { return shift(s, "12", "cycles") < 0 }},
	// The paper's phase 2 trades backend for frontend; here srad_cuda_1's
	// backend grows, 53.1 % to 55.7 %, and divergence grows most, 5.2 % to
	// 13.3 % (srad_cuda_2: backend 60.4 % to 59.9 %, frontend 7.5 % to 7.3 %).
	{"Fig 11", "In phase 2 the backend shrinks and the frontend grows.", false, func(s Source) bool {
		return shift(s, "11", "backend%") > 0
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
