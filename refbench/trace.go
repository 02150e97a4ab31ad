package main

// Tracing from outside the program: every span is recorded by a wrapper
// in this package around a call into one layer's public surface. Spans
// of one request share an id, stay in memory, and are written out when
// the run ends.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kdash/internal/core"
	"kdash/internal/graph"
	"kdash/internal/placement"
	"kdash/internal/shard"
	"kdash/internal/topk"
)

// Span names, one per layer boundary.
const (
	spanClient  = "client"         // caller-observed request
	spanHandler = "server.handler" // Handler.ServeHTTP
	spanPush    = "shard.push"     // engine call: TopK, Search, SearchBatchCtx, Proximity
	spanSolve   = "lu.solve"       // one per-shard factor solve through the RemoteSolver seam
	spanApply   = "shard.apply"    // compactor ApplyDelta
	spanRPC     = "rpc.call"       // one request/response on a worker connection
	spanWorker  = "rpc.worker"     // Worker.Handle
)

// span is one timed call. N carries layer-specific counts:
//
//	shard.push: solves, shards solved, shards pruned, nodes evaluated
//	lu.solve:   shard, rhs nonzeros, solution support, lanes (a block
//	            solve has -1 for nonzeros and support)
//	shard.apply: shards rebuilt
//	rpc.call:   bytes on the wire
//	server.handler: 1 for /update, 0 for reads
type span struct {
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
	N      [4]int `json:"n"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder collects spans. Request ids reach the layers below the caller
// through the goroutine that serves the request (the HTTP connection
// goroutine, or the single caller): ServeHTTP, the engine call and its
// solves all run on it. Calls on other goroutines (RPC worker handlers)
// belong to the one request in flight, kept in current.
type recorder struct {
	t0      time.Time
	ids     atomic.Int64
	current atomic.Int64
	byG     sync.Map // goroutine id -> request id

	mu    sync.Mutex
	spans []span
	conns []*tracedConn
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

func (r *recorder) newReq() int64 { return r.ids.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// bind attributes calls on this goroutine to req until the returned
// function runs.
func (r *recorder) bind(req int64) func() {
	g := goid()
	r.byG.Store(g, req)
	return func() { r.byG.Delete(g) }
}

// req is the request the calling goroutine works for.
func (r *recorder) req() int64 {
	if v, ok := r.byG.Load(goid()); ok {
		return v.(int64)
	}
	return r.current.Load()
}

// goid parses the running goroutine's id from its stack header
// ("goroutine 123 [running]:").
func goid() int64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	b := buf[len("goroutine "):n]
	var id int64
	for _, c := range b {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// time runs fn as one span of req.
func (r *recorder) time(req int64, name, parent string, fn func() [4]int) {
	t0 := r.now()
	n := fn()
	r.add(span{Req: req, Name: name, Parent: parent, Start: t0, End: r.now(), N: n})
}

// reset drops the spans recorded so far (warmup calls).
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.mu.Unlock()
}

// finish closes the last open call of every traced connection and
// returns all spans.
func (r *recorder) finish() []span {
	r.mu.Lock()
	conns := append([]*tracedConn(nil), r.conns...)
	r.mu.Unlock()
	for _, c := range conns {
		c.flush()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedIndex is the traced engine. Embedding keeps every optional
// interface the server probes for (Updatable, SearchBatchCtx, Graph,
// HomeShard, WALSeq, ...); only the timed methods are overridden, and
// ApplyDelta re-wraps the successor so later epochs stay traced.
type tracedIndex struct {
	*shard.ShardedIndex
	rec    *recorder
	parent string // the span calling the engine: client or server.handler
}

func (t *tracedIndex) TopK(q, k int) (rs []topk.Result, qs shard.QueryStats, err error) {
	t.rec.time(t.rec.req(), spanPush, t.parent, func() [4]int {
		rs, qs, err = t.ShardedIndex.TopK(q, k)
		return [4]int{qs.Solves, qs.ShardsSolved, qs.ShardsPruned, qs.NodesEvaluated}
	})
	return rs, qs, err
}

func (t *tracedIndex) Search(q int, opt core.SearchOptions) (rs []topk.Result, ss core.SearchStats, err error) {
	t.rec.time(t.rec.req(), spanPush, t.parent, func() [4]int {
		rs, ss, err = t.ShardedIndex.Search(q, opt)
		return [4]int{3: ss.Visited}
	})
	return rs, ss, err
}

func (t *tracedIndex) SearchBatchCtx(ctx context.Context, queries []core.BatchQuery) (rs [][]topk.Result, ss []core.SearchStats, err error) {
	t.rec.time(t.rec.req(), spanPush, t.parent, func() [4]int {
		rs, ss, err = t.ShardedIndex.SearchBatchCtx(ctx, queries)
		v := 0
		for _, s := range ss {
			v += s.Visited
		}
		return [4]int{3: v}
	})
	return rs, ss, err
}

func (t *tracedIndex) Proximity(q, u int) (p float64, err error) {
	t.rec.time(t.rec.req(), spanPush, t.parent, func() [4]int {
		p, err = t.ShardedIndex.Proximity(q, u)
		return [4]int{}
	})
	return p, err
}

func (t *tracedIndex) ApplyDelta(batch *graph.Delta) (next any, us core.UpdateStats, err error) {
	t.rec.time(t.rec.newReq(), spanApply, "", func() [4]int {
		next, us, err = t.ShardedIndex.ApplyDelta(batch)
		return [4]int{us.ShardsRebuilt}
	})
	if err != nil {
		return nil, us, err
	}
	return &tracedIndex{ShardedIndex: next.(*shard.ShardedIndex), rec: t.rec, parent: t.parent}, us, nil
}

// luSeam times per-shard factor solves: it is the RemoteSolver of a
// factorless copy of the index and solves on a second opened copy, the
// path TestRemoteSolverSeamBitIdentical proves answer-identical.
type luSeam struct {
	solver *shard.ShardedIndex
	rec    *recorder
}

func (s *luSeam) SolveSparse(si int, idx []int, val []float64) (y []float64, sup []int, err error) {
	s.rec.time(s.rec.req(), spanSolve, spanPush, func() [4]int {
		y, sup, err = s.solver.SolveShardSparse(si, idx, val)
		support := len(sup)
		if sup == nil {
			support = len(y)
		}
		return [4]int{si, len(idx), support, 1}
	})
	return y, sup, err
}

func (s *luSeam) SolveBatch(si int, rhs [][]float64) (ys [][]float64, sups [][]int, err error) {
	s.rec.time(s.rec.req(), spanSolve, spanPush, func() [4]int {
		ys, sups, err = s.solver.SolveShardBatch(si, rhs)
		return [4]int{si, -1, -1, len(rhs)}
	})
	return ys, sups, err
}

// openSeamed saves sx under dir and returns a factorless copy whose
// solves run through a luSeam on a second copy. Both copies open every
// shard before returning.
func openSeamed(sx *shard.ShardedIndex, dir string, rec *recorder) (*shard.ShardedIndex, func(), error) {
	if err := sx.Save(dir); err != nil {
		return nil, nil, fmt.Errorf("save index: %w", err)
	}
	solver, err := shard.Open(dir, shard.LoadOptions{Lazy: true})
	if err != nil {
		return nil, nil, err
	}
	if err := solver.OpenAll(); err != nil {
		solver.Close()
		return nil, nil, err
	}
	co, err := shard.Open(dir, shard.LoadOptions{Lazy: true})
	if err != nil {
		solver.Close()
		return nil, nil, err
	}
	co.SetFactorless()
	co.SetRemoteSolver(&luSeam{solver: solver, rec: rec})
	return co, func() { co.Close(); solver.Close() }, nil
}

// reqHeader carries the client's request id to the handler wrapper.
const reqHeader = "X-Refbench-Req"

// tracedHandler times Handler.ServeHTTP and binds the request id to the
// serving goroutine for the engine and solve spans below it.
type tracedHandler struct {
	h   http.Handler
	rec *recorder
}

func (t tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
	unbind := t.rec.bind(req)
	defer unbind()
	isUpdate := 0
	if r.URL.Path == "/update" {
		isUpdate = 1
	}
	t.rec.time(req, spanHandler, spanClient, func() [4]int {
		t.h.ServeHTTP(w, r)
		return [4]int{isUpdate}
	})
}

// tracedConn is the coordinator's worker connection: it counts bytes and
// times each call, from the first write of a request to the last read of
// its response.
type tracedConn struct {
	net.Conn
	rec *recorder

	writing  bool
	open     bool
	req      int64
	start    int64
	lastRead int64
	bytes    int
}

func tracedDial(rec *recorder) func(addr string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			return nil, err
		}
		c := &tracedConn{Conn: nc, rec: rec}
		rec.mu.Lock()
		rec.conns = append(rec.conns, c)
		rec.mu.Unlock()
		return c, nil
	}
}

func (c *tracedConn) Write(p []byte) (int, error) {
	if !c.writing {
		c.flush()
		c.writing, c.open = true, true
		c.req, c.start = c.rec.req(), c.rec.now()
	}
	n, err := c.Conn.Write(p)
	c.bytes += n
	return n, err
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.writing = false
	c.lastRead = c.rec.now()
	c.bytes += n
	return n, err
}

// flush records the connection's last complete call. A connection is
// used by one goroutine at a time, and finish runs after all callers
// have returned.
func (c *tracedConn) flush() {
	if !c.open {
		return
	}
	c.rec.add(span{Req: c.req, Name: spanRPC, Parent: spanClient, Start: c.start, End: c.lastRead, N: [4]int{c.bytes}})
	c.open, c.bytes = false, 0
}

// tracedWorker times Worker.Handle on the worker side of the RPC.
type tracedWorker struct {
	w   *placement.Worker
	rec *recorder
}

func (t tracedWorker) Handle(op uint8, body []byte) (resp []byte, err error) {
	t.rec.time(t.rec.current.Load(), spanWorker, spanRPC, func() [4]int {
		resp, err = t.w.Handle(op, body)
		return [4]int{int(op)}
	})
	return resp, err
}
