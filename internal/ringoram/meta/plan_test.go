package meta

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

// slotModel is a bucket's metadata as per-slot flags, the oracle's own copy
// of it: which key each real position holds and which physical slots are
// valid.
type slotModel struct {
	perm  []int
	addrs []string
	valid []bool
}

// modelOf copies bucket bm of m into a slotModel.
func modelOf(m *Machine, bm bucketView) slotModel {
	sm := slotModel{perm: make([]int, len(bm.perm)), addrs: make([]string, len(bm.addrs)), valid: make([]bool, len(bm.perm))}
	for pos, s := range bm.perm {
		sm.perm[pos] = int(s)
	}
	for r, ki := range bm.addrs {
		if ki >= 0 {
			sm.addrs[r] = m.keys.name(ki)
		}
	}
	for s := range sm.valid {
		sm.valid[s] = bm.valid.has(s)
	}
	return sm
}

// fillers lists, in ascending order, the positions a dummy read may
// consume: a position is a filler when it holds no block (a dummy, or an
// empty real position) and its slot is still valid.
func (sm *slotModel) fillers() []int {
	var out []int
	for pos, s := range sm.perm {
		if pos < len(sm.addrs) && sm.addrs[pos] != "" {
			continue
		}
		if sm.valid[s] {
			out = append(out, pos)
		}
	}
	return out
}

// rescanFillers is the eviction read phase's filler loop as it ran before
// the planner scanned each bucket once: a fresh scan for every pick, a draw
// from rng indexing the ascending list. It pads sm (a bucket after its
// occupied reals were read) to need fillers and returns the physical slots
// picked.
func rescanFillers(sm *slotModel, rng *rand.Rand, need int) []int {
	var picked []int
	for len(picked) < need {
		fillers := sm.fillers()
		if len(fillers) == 0 {
			break
		}
		phys := sm.perm[fillers[rng.IntN(len(fillers))]]
		sm.valid[phys] = false
		picked = append(picked, phys)
	}
	return picked
}

// predictReads returns the read phase an eviction or reshuffle of buckets
// plans from models, the buckets' state before it, drawn the rescanning way
// from a copy of m's generator src, and advances that copy past the write
// phase's shuffles: on return it is the state src must be in after the plan.
func predictReads(m *Machine, models map[int]slotModel, buckets []int, src *rand.PCG) []SlotRead {
	rng := rand.New(src)
	var want []SlotRead
	for _, b := range buckets {
		sm := models[b]
		start := len(want)
		for r := 0; r < m.p.Z; r++ {
			if sm.addrs[r] != "" {
				phys := sm.perm[r]
				sm.valid[phys] = false
				sm.addrs[r] = ""
				want = append(want, SlotRead{Bucket: b, Slot: phys})
			}
		}
		for _, phys := range rescanFillers(&sm, rng, m.p.Z-(len(want)-start)) {
			want = append(want, SlotRead{Bucket: b, Slot: phys})
		}
	}
	for range buckets {
		for i := m.geo.SlotsPer - 1; i > 0; i-- {
			rng.IntN(i + 1)
		}
	}
	return want
}

// TestEvictionFillersMatchRescan drives a seeded machine through more than ten
// thousand evictions, early reshuffles among them, and checks every plan's
// read phase against the rescanning loop it replaced: the same slots in the
// same order, and the generator left in the same state.
func TestEvictionFillersMatchRescan(t *testing.T) {
	const evictions = 10000
	m, err := New(testParams(64), values{})
	must(t, err)
	src := rand.NewPCG(7, 8)
	m.rng = rand.New(src)
	// run plans one operation the way PlanRead and PlanWrite do — the access,
	// then each step nextDue plans — checking each step against the rescan
	// from the state just before it, and runs it. A step is an early
	// reshuffle of a bucket on the access's path or the next evict-path, so
	// the models of those buckets are all a prediction can need.
	reshuffles := 0
	run := func(access *Plan, err error) {
		t.Helper()
		must(t, err)
		steps, path := []*Plan{access}, access.Reads
		for {
			models := make(map[int]slotModel)
			for _, b := range m.geo.Path(m.geo.EvictLeaf(m.evictCount)) {
				models[b] = modelOf(m, m.bucket(b))
			}
			for _, r := range path {
				models[r.Bucket] = modelOf(m, m.bucket(r.Bucket))
			}
			oracle := *src
			plan, rest, err := m.nextDue(path)
			must(t, err)
			if plan == nil {
				break
			}
			want := predictReads(m, models, plan.Buckets, &oracle)
			if len(plan.Reads) != len(want) {
				t.Fatalf("eviction %d of buckets %v: %d reads, the rescan plans %d", m.evictCount, plan.Buckets, len(plan.Reads), len(want))
			}
			for i, r := range plan.Reads {
				if r.Bucket != want[i].Bucket || r.Slot != want[i].Slot {
					t.Fatalf("eviction %d read %d: bucket %d slot %d, the rescan picks bucket %d slot %d", m.evictCount, i, r.Bucket, r.Slot, want[i].Bucket, want[i].Slot)
				}
			}
			if *src != oracle {
				t.Fatalf("eviction %d of buckets %v: generator state diverged from the rescan's", m.evictCount, plan.Buckets)
			}
			if plan.Kind == ReshuffleStep {
				reshuffles++
			}
			steps, path = append(steps, plan), rest
		}
		complete(t, m, steps)
	}
	ops := rand.New(rand.NewPCG(9, 10))
	for m.evictCount < evictions {
		key := fmt.Sprintf("k%d", ops.IntN(48))
		switch op := ops.IntN(10); {
		case op < 3:
			p, _, err := m.planWrite(key)
			run(p, err)
		case op < 9:
			run(m.planRead(key, -1, nil))
		default:
			run(m.planRead("", -1, nil))
		}
	}
	if reshuffles < 100 {
		t.Fatalf("only %d early reshuffles over %d evictions", reshuffles, m.evictCount)
	}
	t.Logf("%d evictions and %d early reshuffles planned as the rescan would", m.evictCount, reshuffles)
}
