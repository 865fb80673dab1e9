package pmu

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"gputopdown/internal/sm"
)

func TestCounterClassification(t *testing.T) {
	if !IsFreeRunning(CtrActiveCycles) || !IsFreeRunning(CtrInstIssued) {
		t.Error("cycle/inst counters must be free-running")
	}
	if IsFreeRunning(CtrL1Misses) || IsFreeRunning(StallCounter(sm.StateWait)) {
		t.Error("slotted counters misclassified as free-running")
	}
	for s := sm.WarpState(0); s < sm.NumWarpStates; s++ {
		id := StallCounter(s)
		got, ok := IsWarpState(id)
		if !ok || got != s {
			t.Errorf("StallCounter(%v) roundtrip failed: %v %v", s, got, ok)
		}
		if m := StateMux(id); m < 0 || m >= NumStateMuxes {
			t.Errorf("state %v mux %d out of range", s, m)
		}
	}
	if StateMux(CtrL1Hits) != -1 {
		t.Error("non-state counter has a mux")
	}
}

func TestNamesUniqueAndNonEmpty(t *testing.T) {
	seen := map[string]bool{}
	for _, id := range AllCounters() {
		n := Name(id)
		if n == "" {
			t.Errorf("counter %d has empty name", id)
		}
		if seen[n] {
			t.Errorf("duplicate counter name %q", n)
		}
		seen[n] = true
	}
}

func TestReadCoversAllCounters(t *testing.T) {
	var c sm.Counters
	c.ActiveCycles = 1
	c.InstExecuted = 2
	c.WarpStateCycles[sm.StateBarrier] = 7
	c.L2Misses = 9
	for _, id := range AllCounters() {
		_ = Read(&c, id) // must not panic
	}
	if Read(&c, CtrActiveCycles) != 1 || Read(&c, CtrInstExecuted) != 2 {
		t.Error("free counter read wrong")
	}
	if Read(&c, StallCounter(sm.StateBarrier)) != 7 {
		t.Error("state counter read wrong")
	}
	if Read(&c, CtrL2Misses) != 9 {
		t.Error("generic counter read wrong")
	}
}

// counterLeaves returns the name and address of every uint64 leaf of *c:
// each field, each element of an array field and each field of an embedded
// struct, by its promoted name.
func counterLeaves(t *testing.T, c *sm.Counters) (names []string, leaves []*uint64) {
	var walk func(v reflect.Value, name string)
	walk = func(v reflect.Value, name string) {
		switch v.Kind() {
		case reflect.Uint64:
			names, leaves = append(names, name), append(leaves, v.Addr().Interface().(*uint64))
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), fmt.Sprintf("%s[%d]", name, i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), v.Type().Field(i).Name)
			}
		default:
			t.Fatalf("sm.Counters leaf %s is a %s, not a uint64 counter", name, v.Type())
		}
	}
	walk(reflect.ValueOf(c).Elem(), "")
	return names, leaves
}

// TestEveryCounterSummedOnceReadOnce: every uint64 leaf of sm.Counters is
// one counter. Add sums it into itself and nothing else, Sub undoes that,
// and exactly one PMU counter reads it, reading no other leaf.
func TestEveryCounterSummedOnceReadOnce(t *testing.T) {
	var base sm.Counters
	names, leaves := counterLeaves(t, &base)
	for i, p := range leaves {
		*p = uint64(i+1) << 20
	}
	if len(leaves) != NumCounters {
		t.Errorf("sm.Counters has %d leaves, the PMU %d counters", len(leaves), NumCounters)
	}
	for i, name := range names {
		var delta, only, others sm.Counters
		_, dl := counterLeaves(t, &delta)
		_, ol := counterLeaves(t, &only)
		_, xl := counterLeaves(t, &others)
		*dl[i], *ol[i] = uint64(i+1), 1
		for j, p := range xl {
			if j != i {
				*p = 1
			}
		}
		sum := base
		sum.Add(&delta)
		_, sl := counterLeaves(t, &sum)
		for j, p := range sl {
			if want := *leaves[j] + *dl[j]; *p != want {
				t.Errorf("Add of %s = %d: %s reads %d, want %d", name, i+1, names[j], *p, want)
			}
		}
		if back := sum.Sub(&delta); back != base {
			t.Errorf("Sub does not undo Add of %s", name)
		}
		var readers []string
		for _, id := range AllCounters() {
			if Read(&only, id) != 0 {
				readers = append(readers, Name(id))
				if v := Read(&others, id); v != 0 {
					t.Errorf("%s reads %s and another leaf (%d with %s zero)", Name(id), name, v, name)
				}
			}
		}
		if len(readers) != 1 {
			t.Errorf("%s is read by %d PMU counters %v, want 1", name, len(readers), readers)
		}
	}
}

// level3Request mirrors the full level-3 Top-Down counter set: every stall
// state in the paper's Tables VI and VIII plus the free-running IPC inputs.
func level3Request() []CounterID {
	req := []CounterID{
		CtrActiveCycles, CtrActiveWarpCycles, CtrInstExecuted, CtrInstIssued,
		CtrThreadInstExecuted,
	}
	states := []sm.WarpState{
		sm.StateNoInstruction, sm.StateBarrier, sm.StateMembar,
		sm.StateBranchResolving, sm.StateSleeping, sm.StateMisc,
		sm.StateDispatchStall, sm.StateMathPipeThrottle,
		sm.StateLongScoreboard, sm.StateIMCMiss, sm.StateMIOThrottle,
		sm.StateDrain, sm.StateLGThrottle, sm.StateShortScoreboard,
		sm.StateWait, sm.StateTEXThrottle,
	}
	for _, s := range states {
		req = append(req, StallCounter(s))
	}
	return req
}

func TestLevel3SetNeedsEightPasses(t *testing.T) {
	// The paper observes each kernel executed 8 times for a level-3 analysis
	// (§V.E, Fig. 13). 16 warp-state counters through 2 muxes -> 8 passes.
	sched, err := BuildSchedule(level3Request())
	if err != nil {
		t.Fatal(err)
	}
	if got := sched.NumPasses(); got != 8 {
		t.Errorf("level-3 schedule needs %d passes, want 8", got)
	}
}

func TestFreeOnlyRequestIsOnePass(t *testing.T) {
	sched, err := BuildSchedule([]CounterID{CtrInstExecuted, CtrActiveCycles, CtrThreadInstExecuted})
	if err != nil {
		t.Fatal(err)
	}
	if sched.NumPasses() != 1 {
		t.Errorf("free-only request needs %d passes, want 1", sched.NumPasses())
	}
}

func TestScheduleRespectsCapacity(t *testing.T) {
	sched, err := BuildSchedule(AllCounters())
	if err != nil {
		t.Fatal(err)
	}
	for i, pass := range sched.Passes {
		generic := 0
		mux := make([]int, NumStateMuxes)
		for _, id := range pass {
			if IsFreeRunning(id) {
				continue
			}
			if _, ok := IsWarpState(id); ok {
				mux[StateMux(id)]++
			} else {
				generic++
			}
		}
		if generic > GenericSlotsPerPass {
			t.Errorf("pass %d has %d generic counters (cap %d)", i, generic, GenericSlotsPerPass)
		}
		for m, n := range mux {
			if n > 1 {
				t.Errorf("pass %d observes %d states on mux %d", i, n, m)
			}
		}
	}
}

func TestScheduleCoversRequestExactlyOnce(t *testing.T) {
	req := level3Request()
	req = append(req, CtrL1Hits, CtrL1Misses, CtrIMCMisses, CtrIMCMisses) // dup
	sched, err := BuildSchedule(req)
	if err != nil {
		t.Fatal(err)
	}
	count := map[CounterID]int{}
	for _, pass := range sched.Passes {
		for _, id := range pass {
			count[id]++
		}
	}
	for _, id := range req {
		if count[id] != 1 {
			t.Errorf("counter %s scheduled %d times", Name(id), count[id])
		}
	}
}

func TestScheduleRejectsUnknown(t *testing.T) {
	if _, err := BuildSchedule([]CounterID{CounterID(9999)}); err == nil {
		t.Error("unknown counter accepted")
	}
}

func TestValuesMerge(t *testing.T) {
	var c sm.Counters
	c.InstExecuted = 5
	c.WarpStateCycles[sm.StateWait] = 11
	v := Values{}
	v.Merge([]CounterID{CtrInstExecuted, StallCounter(sm.StateWait)}, &c)
	if v[CtrInstExecuted] != 5 || v[StallCounter(sm.StateWait)] != 11 {
		t.Errorf("merge produced %v", v)
	}
}

// Property: any subset of valid counters schedules successfully, covers
// everything exactly once and respects capacity.
func TestSchedulePropertyRandomSubsets(t *testing.T) {
	all := AllCounters()
	f := func(mask uint64, mask2 uint64) bool {
		var req []CounterID
		for i, id := range all {
			bit := uint(i) % 64
			src := mask
			if i >= 64 {
				src = mask2
			}
			if src&(1<<bit) != 0 {
				req = append(req, id)
			}
		}
		sched, err := BuildSchedule(req)
		if err != nil {
			return false
		}
		got := map[CounterID]int{}
		for _, pass := range sched.Passes {
			generic := 0
			mux := make([]int, NumStateMuxes)
			for _, id := range pass {
				got[id]++
				if IsFreeRunning(id) {
					continue
				}
				if _, ok := IsWarpState(id); ok {
					mux[StateMux(id)]++
				} else {
					generic++
				}
			}
			if generic > GenericSlotsPerPass {
				return false
			}
			for _, n := range mux {
				if n > 1 {
					return false
				}
			}
		}
		for _, id := range req {
			if got[id] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestScheduleFingerprintRecorded: the fingerprint keys the replay cache, so
// the full counter set's schedule keeps its recorded value.
func TestScheduleFingerprintRecorded(t *testing.T) {
	s, err := BuildSchedule(AllCounters())
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Fingerprint(); got != 0xcb285eec8acd1fe2 {
		t.Errorf("Fingerprint = %#x, want the recorded 0xcb285eec8acd1fe2", got)
	}
}
