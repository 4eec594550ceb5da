package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// spanKind names a traced call. Each kind belongs to one layer.
type spanKind uint8

const (
	spanOp         spanKind = iota // one request, the root of its spans
	spanCells                      // scenario.Grid.Cells
	spanSplit                      // scenario.AutoSplit
	spanMap                        // parallel.Map over one chunk of cells
	spanCell                       // the handler's per-cell closure
	spanKey                        // cache.CellKey
	spanDo                         // cache.Cache.Do
	spanRunOne                     // scenario.Runner.RunOne, and sim.MonteCarlo below it
	spanAppend                     // cache.Store.Append (DiskStore)
	spanStoreLoad                  // cache.Store.Load (DiskStore warm start)
	spanCkptLoad                   // sim.Checkpointer.Load (CheckpointStore)
	spanCkptSave                   // sim.Checkpointer.Save (CheckpointStore)
	spanEncode                     // result row encode
	spanProgress                   // progress row encode
	spanExperiment                 // experiments.ByID(id).Run
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"op", "scenario.Grid.Cells", "scenario.AutoSplit", "parallel.Map", "antserve.cell",
	"cache.CellKey", "cache.Cache.Do", "scenario.Runner.RunOne", "cache.Store.Append",
	"cache.Store.Load", "sim.Checkpointer.Load", "sim.Checkpointer.Save",
	"antserve.encode", "antserve.progress", "experiments.Run",
}

// spanLayers maps each kind to the module whose self time it measures.
// RunOne's self time is mostly sim.MonteCarlo: spans inside the program do
// not exist yet, so the two layers share it.
var spanLayers = [numSpanKinds]string{
	"harness", "scenario", "scenario", "parallel", "antserve",
	"cache", "cache", "scenario+sim", "cache.store",
	"cache.store", "cache.checkpoint", "cache.checkpoint",
	"antserve", "antserve", "experiments",
}

// span is one finished traced call. Times are nanoseconds since the
// recorder's epoch; parent 0 means a root.
type span struct {
	id, parent, op int32
	kind           spanKind
	start, end     int64
}

func (s span) dur() int64 { return s.end - s.start }

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how the untraced run shares the traced run's code.
type recorder struct {
	epoch time.Time
	next  atomic.Int32
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// active is a started span; end records it.
type active struct {
	rec *recorder
	s   span
}

func (r *recorder) start(kind spanKind, parent, op int32) active {
	if r == nil {
		return active{}
	}
	return active{rec: r, s: span{
		id: r.next.Add(1), parent: parent, op: op, kind: kind,
		start: int64(time.Since(r.epoch)),
	}}
}

func (a active) id() int32 { return a.s.id }

func (a active) end() {
	if a.rec == nil {
		return
	}
	a.s.end = int64(time.Since(a.rec.epoch))
	a.rec.mu.Lock()
	a.rec.spans = append(a.rec.spans, a.s)
	a.rec.mu.Unlock()
}

// take returns the spans recorded so far and forgets them.
func (r *recorder) take() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// selfTimes returns, for every span id, the span's duration minus the union
// of its children's intervals clipped to the span. Children may overlap
// (parallel.Map runs cells side by side), so their durations are not
// simply subtracted.
func selfTimes(spans []span) map[int32]int64 {
	children := map[int32][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		self[s.id] = s.dur() - covered(s, children[s.id])
	}
	return self
}

// covered returns the length of the union of the children's intervals
// within the parent's interval.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.start, parent.start), min(k.end, parent.end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += curHi - curLo
	}
	return total
}
