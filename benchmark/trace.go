package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// This file is the traced pass's span recorder. Spans are kept in memory and
// written as JSON lines after the run. The driver opens a span around every
// call it makes into core and around its own client phases; the storage
// wrapper (meter.go) records one span per Backend call. A span's self time
// is its duration minus the part its children cover.

type spanName uint8

const (
	spanEpoch          spanName = iota // one driver epoch, begin phase to ack collection
	spanClientBegin                    // Begin + ReadAsync (+ blind Write) for every transaction
	spanStepRead                       // core.Proxy.StepReadBatch
	spanClientResolve                  // resolve futures, issue read-dependent writes
	spanClientCommit                   // CommitAsync registrations
	spanSeal                           // core.Proxy.EndEpoch
	spanAcks                           // collect the previous epoch's acks, apply the oracle
	spanCommitStage                    // EndEpoch's return until the boundary commit is durable
	spanStorageRead                    // Backend reads
	spanStorageWrite                   // Backend bucket writes
	spanStorageAppend                  // Backend log appends
	spanStorageBarrier                 // Backend durability barriers
	spanStorageOther                   // any other Backend call
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"driver.epoch", "client.begin", "core.step_read", "client.resolve", "client.commit",
	"core.seal", "client.acks", "core.commit_stage",
	"storage.read", "storage.write", "storage.append", "storage.barrier", "storage.other",
}

func (n spanName) isStorage() bool { return n >= spanStorageRead }

// span is one recorded interval. Times are nanotime() readings; parent is an
// index into the tracer's span slice (-1 for roots).
type span struct {
	name   spanName
	parent int32
	epoch  uint32
	start  int64
	end    int64
}

type tracer struct {
	mu    sync.Mutex
	spans []span

	// The driver's position, read by storage spans to find their parent:
	// the open core call if there is one, else the newest commit stage.
	epochSpan atomic.Int32
	coreSpan  atomic.Int32
	stageSpan atomic.Int32
	epoch     atomic.Uint32
}

func newTracer(capacity int) *tracer {
	t := &tracer{spans: make([]span, 0, capacity)}
	t.epochSpan.Store(-1)
	t.coreSpan.Store(-1)
	t.stageSpan.Store(-1)
	return t
}

func (t *tracer) add(s span) int32 {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	i := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return i
}

// openEpoch starts the epoch span that parents the driver's phases.
func (t *tracer) openEpoch(epoch uint32) {
	t.epoch.Store(epoch)
	t.epochSpan.Store(t.add(span{name: spanEpoch, parent: -1, epoch: epoch, start: nanotime()}))
}

// open starts a driver phase under the current epoch span. Core calls are
// additionally published so storage spans started meanwhile nest under them.
func (t *tracer) open(name spanName) int32 {
	i := t.add(span{name: name, parent: t.epochSpan.Load(), epoch: t.epoch.Load(), start: nanotime()})
	if name == spanStepRead || name == spanSeal {
		t.coreSpan.Store(i)
	}
	return i
}

func (t *tracer) close(i int32) {
	end := nanotime()
	t.mu.Lock()
	t.spans[i].end = end
	name := t.spans[i].name
	t.mu.Unlock()
	if name == spanStepRead || name == spanSeal {
		t.coreSpan.Store(-1)
	}
}

// rollStage is called when a seal returns: the previous epoch's commit stage
// ended at prevEnd (the seal waited for it), and the sealed epoch's begins now.
func (t *tracer) rollStage(prevEnd int64) {
	now := nanotime()
	t.mu.Lock()
	if i := t.stageSpan.Load(); i >= 0 {
		t.spans[i].end = max(prevEnd, t.spans[i].start)
	}
	t.spans = append(t.spans, span{name: spanCommitStage, parent: -1, epoch: t.epoch.Load(), start: now})
	t.stageSpan.Store(int32(len(t.spans) - 1))
	t.mu.Unlock()
}

// storageSpan records one Backend call. Bucket writes always belong to the
// commit stage (write-back is deferred to the boundary); every other call
// nests under the core call the driver is inside, if any, else under the
// commit stage running behind the driver's client phases.
func (t *tracer) storageSpan(name spanName, start, end int64) {
	parent := t.coreSpan.Load()
	if parent < 0 || name == spanStorageWrite {
		parent = t.stageSpan.Load()
	}
	t.add(span{name: name, parent: parent, epoch: t.epoch.Load(), start: start, end: end})
}

// covered returns how much of [lo, hi) the intervals cover (their union,
// clipped). ivs is sorted in place.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := iv[0], iv[1]
		if s < cur {
			s = cur
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// traceSummary is what the per-layer metrics need from the spans of one
// range of epochs.
type traceSummary struct {
	epochs      int
	epochNanos  int64               // sum of epoch span durations
	phaseNanos  [numSpanNames]int64 // sum of durations by name
	phaseCount  [numSpanNames]int64 // spans by name
	coreSelf    int64               // step+seal duration minus covered storage time
	topCovered  int64               // epoch time covered by the driver's phase spans
	storageBusy int64               // union of all storage spans
}

// summarize aggregates the spans of the epochs first, first+1, ... for which
// include is true.
func (t *tracer) summarize(first uint32, include []bool) traceSummary {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	var s traceSummary
	skip := func(sp *span) bool {
		return sp.end == 0 || sp.epoch < first || int(sp.epoch-first) >= len(include) || !include[sp.epoch-first]
	}
	children := make(map[int32][][2]int64)
	var storageIvs [][2]int64
	for i := range spans {
		sp := &spans[i]
		if skip(sp) {
			continue
		}
		s.phaseNanos[sp.name] += sp.end - sp.start
		s.phaseCount[sp.name]++
		if sp.parent >= 0 {
			children[sp.parent] = append(children[sp.parent], [2]int64{sp.start, sp.end})
		}
		if sp.name.isStorage() {
			storageIvs = append(storageIvs, [2]int64{sp.start, sp.end})
		}
	}
	for i := range spans {
		sp := &spans[i]
		if skip(sp) {
			continue
		}
		switch sp.name {
		case spanEpoch:
			s.epochs++
			s.epochNanos += sp.end - sp.start
			s.topCovered += covered(children[int32(i)], sp.start, sp.end)
		case spanStepRead, spanSeal:
			s.coreSelf += (sp.end - sp.start) - covered(children[int32(i)], sp.start, sp.end)
		}
	}
	if len(storageIvs) > 0 {
		s.storageBusy = covered(storageIvs, -1<<62, 1<<62)
	}
	return s
}

// spanRecord is the JSON-lines form of a span.
type spanRecord struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Parent int     `json:"parent"`
	Epoch  uint32  `json:"epoch"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// writeTo writes every finished span as one JSON object per line.
func (t *tracer) writeTo(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, sp := range t.spans {
		if sp.end == 0 {
			continue
		}
		rec := spanRecord{ID: i, Name: spanNames[sp.name], Parent: int(sp.parent), Epoch: sp.epoch,
			Start: float64(sp.start) / 1e3, End: float64(sp.end) / 1e3}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return w.Flush()
}
