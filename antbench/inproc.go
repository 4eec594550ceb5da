package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"

	"antsearch/internal/cache"
	"antsearch/internal/parallel"
	"antsearch/internal/scenario"
	"antsearch/internal/sim"
)

// sweepRow and progressRow mirror antserve's NDJSON wire rows field for
// field, so rows encoded here are byte-identical to the server's.
type sweepRow struct {
	Index    int             `json:"index"`
	Scenario string          `json:"scenario"`
	K        int             `json:"k"`
	D        int             `json:"d"`
	Trials   int             `json:"trials"`
	Seed     uint64          `json:"seed"`
	Cached   bool            `json:"cached"`
	Stats    *sim.TrialStats `json:"stats,omitempty"`
	Error    string          `json:"error,omitempty"`
}

type progressRow struct {
	Type          string  `json:"type"`
	Index         int     `json:"index"`
	Scenario      string  `json:"scenario"`
	K             int     `json:"k"`
	D             int     `json:"d"`
	ShardsDone    int     `json:"shards_done"`
	TotalShards   int     `json:"total_shards"`
	TrialsDone    int     `json:"trials_done"`
	Trials        int     `json:"trials"`
	ResumedShards int     `json:"resumed_shards"`
	Found         int     `json:"found"`
	MeanTime      float64 `json:"mean_time"`
}

// rowWriter serializes the rows of one in-process response; result rows and
// progress rows fired from inside the cell fan-out may interleave.
type rowWriter struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	enc   *json.Encoder
	bytes int // bytes of result rows
}

func newRowWriter() *rowWriter {
	w := &rowWriter{}
	w.enc = json.NewEncoder(&w.buf)
	return w
}

func (w *rowWriter) write(row any, result bool) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := w.buf.Len()
	if err := w.enc.Encode(row); err != nil {
		return err
	}
	if result {
		w.bytes += w.buf.Len() - n
	}
	return nil
}

// service is the in-process stand-in for antserve's /sweep handler: the same
// cache, durable store, checkpoint tier and per-cell call sequence
// (Grid.Cells → AutoSplit → chunked parallel.Map → CellKey → Cache.Do →
// Runner.RunOne → row encode) without HTTP: no request decode, no response
// writes or flushes. Its op latency subtracted from antserve's is the
// antserve layer. With a recorder it also traces every call, and wraps the
// DiskStore and each cell's Checkpointer in timing decorators.
type service struct {
	cache *cache.Cache
	ckpts *cache.CheckpointStore
	rec   *recorder

	mu       sync.Mutex
	doSpans  map[cache.Key][2]int32 // in-flight Do span and op per key: the Append span's parent
	cells    []cellRecord
	rowBytes int
	rows     int
}

// cellRecord is what the traced run learned about one served cell.
type cellRecord struct {
	cell     scenario.Cell
	computed bool
	runOne   time.Duration
	shards   int
	stats    sim.TrialStats
}

func openService(storeDir, ckptDir string, rec *recorder) (*service, error) {
	s := &service{rec: rec, doSpans: map[cache.Key][2]int32{}}
	ds, err := cache.OpenDiskStore(storeDir)
	if err != nil {
		return nil, err
	}
	var store cache.Store = ds
	if rec != nil {
		store = timedStore{DiskStore: ds, svc: s}
	}
	if s.cache, err = cache.NewWithStore(cache.DefaultCapacity, store); err != nil {
		_ = ds.Close() // the warm-start error is the one to report
		return nil, err
	}
	if s.ckpts, err = cache.OpenCheckpointStore(ckptDir); err != nil {
		_ = s.cache.Close() // the open error is the one to report
		return nil, err
	}
	return s, nil
}

// close compacts and closes both stores, as antserve's shutdown does.
func (s *service) close() error {
	err := s.cache.Close()
	if cerr := s.ckpts.Close(); err == nil {
		err = cerr
	}
	return err
}

type cellResult struct {
	stats  sim.TrialStats
	cached bool
}

// sweep serves one request the way antserve's handleSweep does and returns
// the NDJSON body the server would stream.
func (s *service) sweep(ctx context.Context, op int32, req sweep) ([]byte, error) {
	root := s.rec.start(spanOp, 0, op)
	defer root.end()
	sp := s.rec.start(spanCells, root.id(), op)
	cells, err := req.grid.Cells()
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = s.rec.start(spanSplit, root.id(), op)
	cellWorkers, trialWorkers := scenario.AutoSplit(cells, 0)
	sp.end()

	w := newRowWriter()
	runner := scenario.Runner{Workers: trialWorkers}
	for lo := 0; lo < len(cells); lo += cellWorkers {
		hi := min(lo+cellWorkers, len(cells))
		chunk := cells[lo:hi]
		base := lo
		mp := s.rec.start(spanMap, root.id(), op)
		results, err := parallel.Map(ctx, len(chunk), cellWorkers, func(i int) (cellResult, error) {
			return s.cell(ctx, op, mp.id(), req, chunk[i], base+i, runner, w)
		})
		mp.end()
		if err != nil {
			return nil, err
		}
		for i, res := range results {
			cell := chunk[i]
			es := s.rec.start(spanEncode, root.id(), op)
			err := w.write(sweepRow{
				Index: lo + i, Scenario: cell.Scenario, K: cell.K, D: cell.D,
				Trials: cell.Trials, Seed: cell.Seed, Cached: res.cached, Stats: &res.stats,
			}, true)
			es.end()
			if err != nil {
				return nil, err
			}
		}
	}
	if s.rec != nil {
		s.mu.Lock()
		s.rowBytes += w.bytes
		s.rows += len(cells)
		s.mu.Unlock()
	}
	return w.buf.Bytes(), nil
}

// cell is the body of the handler's per-cell closure.
func (s *service) cell(ctx context.Context, op, parent int32, req sweep, cell scenario.Cell, idx int, runner scenario.Runner, w *rowWriter) (cellResult, error) {
	cs := s.rec.start(spanCell, parent, op)
	defer cs.end()
	ks := s.rec.start(spanKey, cs.id(), op)
	key := cache.CellKey(cell, req.grid.Params)
	ks.end()

	rec := cellRecord{cell: cell}
	var runSpan int32
	cr := runner
	if req.progress {
		cr.Progress = func(c scenario.Cell, p sim.Progress) {
			ps := s.rec.start(spanProgress, runSpan, op)
			_ = w.write(progressRow{ // a bytes.Buffer write cannot fail
				Type: "progress", Index: idx, Scenario: c.Scenario, K: c.K, D: c.D,
				ShardsDone: p.ShardsDone, TotalShards: p.TotalShards, TrialsDone: p.TrialsDone,
				Trials: p.TotalTrials, ResumedShards: p.ResumedShards,
				Found: p.Stats.Found, MeanTime: p.Stats.AllTime.Mean,
			}, false)
			ps.end()
			rec.shards = p.TotalShards
		}
		cr.ProgressEvery = -1 // the engine's automatic stride, as antserve asks
	} else if s.rec != nil {
		// A final-shard-only hook reads the shard plan; its one Stats() per
		// cell is part of the tracing overhead.
		cr.Progress = func(_ scenario.Cell, p sim.Progress) { rec.shards = p.TotalShards }
		cr.ProgressEvery = math.MaxInt
	}
	ck := s.ckpts.ForCell(key)
	cr.Checkpointer = func(scenario.Cell) sim.Checkpointer {
		if s.rec == nil {
			return ck
		}
		return timedCheckpointer{inner: ck, rec: s.rec, parent: runSpan, op: op}
	}
	cr.CheckpointEvery = 1

	ds := s.rec.start(spanDo, cs.id(), op)
	if s.rec != nil {
		s.mu.Lock()
		s.doSpans[key] = [2]int32{ds.id(), op}
		s.mu.Unlock()
	}
	st, cached, err := s.cache.Do(ctx, key, func(ctx context.Context) (sim.TrialStats, error) {
		rs := s.rec.start(spanRunOne, ds.id(), op)
		runSpan = rs.id()
		start := time.Now()
		st, err := cr.RunOne(ctx, cell)
		rec.runOne = time.Since(start)
		rs.end()
		rec.computed = true
		return st, err
	})
	ds.end()
	if err != nil {
		return cellResult{}, fmt.Errorf("cell %d: %w", idx, err)
	}
	if s.rec != nil {
		rec.stats = st
		s.mu.Lock()
		delete(s.doSpans, key)
		s.cells = append(s.cells, rec)
		s.mu.Unlock()
	}
	return cellResult{stats: st, cached: cached}, nil
}

// timedStore is the DiskStore with spans around the warm-start Load and
// every write-behind Append. Snapshot, Close and Retries pass through.
type timedStore struct {
	*cache.DiskStore
	svc *service
}

func (t timedStore) Load(emit func(cache.Entry)) error {
	sp := t.svc.rec.start(spanStoreLoad, 0, 0)
	defer sp.end()
	return t.DiskStore.Load(emit)
}

func (t timedStore) Append(e cache.Entry) error {
	t.svc.mu.Lock()
	parent := t.svc.doSpans[e.Key]
	t.svc.mu.Unlock()
	sp := t.svc.rec.start(spanAppend, parent[0], parent[1])
	defer sp.end()
	return t.DiskStore.Append(e)
}

// timedCheckpointer is one cell's Checkpointer with spans around the resume
// probe and every save.
type timedCheckpointer struct {
	inner      sim.Checkpointer
	rec        *recorder
	parent, op int32
}

func (t timedCheckpointer) Load(valid func(sim.CheckpointState) bool) (sim.CheckpointState, bool) {
	sp := t.rec.start(spanCkptLoad, t.parent, t.op)
	defer sp.end()
	return t.inner.Load(valid)
}

func (t timedCheckpointer) Save(cp sim.CheckpointState) error {
	sp := t.rec.start(spanCkptSave, t.parent, t.op)
	defer sp.end()
	return t.inner.Save(cp)
}
