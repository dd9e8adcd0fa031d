package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ses"
	"ses/internal/cluster"
	"ses/internal/core"
	"ses/internal/dataset"
	"ses/internal/obs"
	"ses/internal/session"
	"ses/internal/solver"
	"ses/internal/store"
	"ses/internal/wal"
)

// This file is the traced run's per-layer replay: each layer is built
// in-process and fed the same seeded mutation stream the daemons
// committed, and every call is timed from outside the layer.

// replayOp is one mutation of the recorded stream.
type replayOp struct {
	s *sess
	m store.Mutation
}

// layers holds the replay's inputs and results.
type layers struct {
	r     *run
	ctx   context.Context
	ops   []replayOp
	sess  []*sess // sessions the ops touch, in index order
	insts map[*sess]*core.Instance
	out   map[string]metric
	tmp   int
}

func (l *layers) put(name string, v float64, unit string) { l.out[name] = metric{v, unit} }

func (l *layers) tempDir() (string, error) {
	l.tmp++
	d := filepath.Join(l.r.dir, fmt.Sprintf("layer-%d", l.tmp))
	return d, os.MkdirAll(d, 0o755)
}

// replayLayers times every layer and returns the per-layer metrics.
func (r *run) replayLayers() (map[string]metric, error) {
	l := &layers{r: r, ctx: context.Background(), insts: map[*sess]*core.Instance{}, out: map[string]metric{}}
	// The stream interleaves sessions round-robin in each session's
	// commit order, capped at the workload's layerOps.
	used := map[*sess]bool{}
	for i := 1; len(l.ops) < r.w.layerOps; i++ {
		added := false
		for _, s := range r.sessions {
			if i < len(s.versions) && len(l.ops) < r.w.layerOps {
				raw, _ := json.Marshal(s.versions[i].mut)
				var m store.Mutation
				if err := json.Unmarshal(raw, &m); err != nil {
					return nil, err
				}
				l.ops = append(l.ops, replayOp{s, m})
				used[s], added = true, true
			}
		}
		if !added {
			break
		}
	}
	for _, s := range r.sessions {
		if used[s] {
			l.sess = append(l.sess, s)
		}
	}
	steps := []func() error{
		l.decode, l.solver, l.scoring, l.session, l.memStore, l.durable,
		l.pipeline, l.walAppend, l.mesh, l.obsOverhead, l.recoverDir,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return l.out, nil
}

// decode: the create body's instance document → core.Instance.
func (l *layers) decode() error {
	var ts []float64
	for _, s := range l.sess {
		t0 := time.Now()
		var req struct {
			Instance *dataset.InstanceDoc `json:"instance"`
		}
		if err := json.Unmarshal(s.in.body, &req); err != nil {
			return err
		}
		inst, err := req.Instance.Instance()
		if err != nil {
			return err
		}
		ts = append(ts, ms(time.Since(t0)))
		l.insts[s] = inst
	}
	l.put("dataset.decode_ms", median(ts), "ms")
	return nil
}

// solver: a cold from-scratch GRD solve of each session's instance.
func (l *layers) solver() error {
	var ts, scores []float64
	for _, s := range l.sess[:min(len(l.sess), 8)] {
		t0 := time.Now()
		res, err := solver.NewGRD(solver.Config{}).Solve(l.ctx, l.insts[s], s.in.k)
		if err != nil {
			return err
		}
		ts = append(ts, ms(time.Since(t0)))
		scores = append(scores, float64(res.Counters.InitialScores))
	}
	l.put("solver.cold_ms", median(ts), "ms")
	l.put("solver.initial_scores", median(scores), "count")
	return nil
}

// scoring: the default engine's ScoreBatch over every (event,
// interval) of the largest instance, per pair.
func (l *layers) scoring() error {
	inst := l.insts[l.sess[0]]
	for _, s := range l.sess {
		if l.insts[s].NumUsers > inst.NumUsers {
			inst = l.insts[s]
		}
	}
	events := make([]int, inst.NumEvents())
	for i := range events {
		events[i] = i
	}
	out := make([]float64, len(events))
	var per []float64
	for rep := 0; rep < 5; rep++ {
		eng := solver.DefaultEngine(inst)
		t0 := time.Now()
		for t := 0; t < inst.NumIntervals; t++ {
			eng.ScoreBatch(events, t, out)
		}
		per = append(per, float64(time.Since(t0))/float64(time.Microsecond)/float64(len(events)*inst.NumIntervals))
	}
	l.put("choice.score_us", median(per), "us")
	return nil
}

// session: Scheduler mutation and Resolve per replayed op, with a
// Schedule() read issued while each Resolve runs.
func (l *layers) session() error {
	scheds := map[*sess]*session.Scheduler{}
	for _, s := range l.sess {
		sc, err := session.New(l.insts[s], s.in.k, session.Options{})
		if err != nil {
			return err
		}
		if _, err := sc.Resolve(l.ctx); err != nil {
			return err
		}
		scheds[s] = sc
	}
	var mut, res, wait, scans, upd, pops, init []float64
	for _, op := range l.ops {
		sc := scheds[op.s]
		t0 := time.Now()
		if _, err := op.m.ApplyTo(sc); err != nil {
			return err
		}
		mut = append(mut, float64(time.Since(t0))/float64(time.Microsecond))
		done := make(chan *session.Delta, 1)
		var resDur time.Duration
		go func() {
			t := time.Now()
			d, err := sc.Resolve(l.ctx)
			resDur = time.Since(t)
			if err != nil {
				d = nil
			}
			done <- d
		}()
		time.Sleep(100 * time.Microsecond)
		t1 := time.Now()
		sc.Schedule()
		wait = append(wait, ms(time.Since(t1)))
		d := <-done
		if d == nil {
			return fmt.Errorf("session replay: resolve of %s failed", op.s.name)
		}
		res = append(res, ms(resDur))
		scans = append(scans, float64(d.Counters.ListScans))
		upd = append(upd, float64(d.Counters.ScoreUpdates))
		pops = append(pops, float64(d.Counters.Pops))
		init = append(init, float64(d.Counters.InitialScores))
	}
	l.put("session.mutate_us", median(mut), "us")
	l.put("session.resolve_ms", median(res), "ms")
	l.put("session.resolve_tail_ms", tail(res), "ms")
	l.put("session.read_wait_ms", median(wait), "ms")
	l.put("session.list_scans", mean(scans), "count")
	l.put("session.score_updates", mean(upd), "count")
	l.put("session.pops", mean(pops), "count")
	l.put("session.initial_scores", mean(init), "count")
	return nil
}

// memStore: in-memory Store.ApplyBatch and Store.Meta, then a binary
// snapshot round trip of every session.
func (l *layers) memStore() error {
	st := store.New(session.Options{})
	for _, s := range l.sess {
		if err := st.Create(s.name, l.insts[s], s.in.k); err != nil {
			return err
		}
		if _, err := st.Resolve(l.ctx, s.name); err != nil {
			return err
		}
	}
	var apply, meta []float64
	for _, op := range l.ops {
		t0 := time.Now()
		if _, err := st.ApplyBatch(l.ctx, op.s.name, []store.Mutation{op.m}); err != nil {
			return err
		}
		apply = append(apply, ms(time.Since(t0)))
		t1 := time.Now()
		if _, err := st.Meta(op.s.name); err != nil {
			return err
		}
		meta = append(meta, float64(time.Since(t1))/float64(time.Microsecond))
	}
	l.put("store.apply_ms", median(apply), "ms")
	l.put("store.meta_us", median(meta), "us")
	var enc, dec []float64
	for _, s := range l.sess {
		state, err := st.Snapshot(s.name)
		if err != nil {
			return err
		}
		doc, err := ses.NewSnapshot(s.name, state)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		t0 := time.Now()
		if err := ses.EncodeSnapshotBinary(&buf, doc); err != nil {
			return err
		}
		enc = append(enc, ms(time.Since(t0)))
		t1 := time.Now()
		if _, err := ses.DecodeSnapshotBinary(&buf); err != nil {
			return err
		}
		dec = append(dec, ms(time.Since(t1)))
	}
	l.put("snap.encode_ms", median(enc), "ms")
	l.put("snap.decode_ms", median(dec), "ms")
	return nil
}

// durableOpts is the daemons' durability: SyncAlways with group commit.
func durableOpts() store.DurableOptions {
	return store.DurableOptions{Sync: wal.SyncAlways, GroupCommit: wal.GroupCommit{Enabled: true}}
}

// openDurable opens a fresh durable store with every session created
// (timed) and first-resolved.
func (l *layers) openDurable() (*store.Durable, string, []float64, error) {
	dir, err := l.tempDir()
	if err != nil {
		return nil, "", nil, err
	}
	d, err := store.OpenDurable(dir, durableOpts())
	if err != nil {
		return nil, "", nil, err
	}
	var create []float64
	for _, s := range l.sess {
		t0 := time.Now()
		if err := d.Create(s.name, l.insts[s], s.in.k); err != nil {
			d.Close()
			return nil, "", nil, err
		}
		create = append(create, ms(time.Since(t0)))
		if _, err := d.Resolve(l.ctx, s.name); err != nil {
			d.Close()
			return nil, "", nil, err
		}
	}
	return d, dir, create, nil
}

// durable: Durable.Create and sequential Durable.ApplyBatch.
func (l *layers) durable() error {
	d, _, create, err := l.openDurable()
	if err != nil {
		return err
	}
	defer d.Close()
	var apply []float64
	for _, op := range l.ops {
		t0 := time.Now()
		if _, err := d.ApplyBatch(l.ctx, op.s.name, []store.Mutation{op.m}); err != nil {
			return err
		}
		apply = append(apply, ms(time.Since(t0)))
	}
	l.put("store.create_ms", median(create), "ms")
	l.put("store.durable_apply_ms", median(apply), "ms")
	return nil
}

// pipeline: Pipeline.ApplyBatch over Durable with one caller per
// load-generator connection, each replaying its own sessions.
func (l *layers) pipeline() error {
	d, dir, _, err := l.openDurable()
	if err != nil {
		return err
	}
	defer d.Close()
	pipe := store.NewPipeline(d, store.PipelineOptions{})
	defer pipe.Close()
	ws0, size0 := d.WALStats(), dirSize(dir)
	callers := l.r.workers
	lat := make([][]float64, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, op := range l.ops {
				if op.s.idx%callers != c {
					continue
				}
				t0 := time.Now()
				if _, err := pipe.ApplyBatch(l.ctx, op.s.name, []store.Mutation{op.m}); err != nil {
					errs[c] = err
					return
				}
				lat[c] = append(lat[c], ms(time.Since(t0)))
			}
		}()
	}
	wg.Wait()
	var all []float64
	for c := range lat {
		if errs[c] != nil {
			return errs[c]
		}
		all = append(all, lat[c]...)
	}
	pm := pipe.Metrics()
	ws := d.WALStats()
	writes := float64(len(l.ops))
	l.put("store.pipeline_apply_ms", median(all), "ms")
	l.put("store.pipeline_apply_tail_ms", tail(all), "ms")
	l.put("store.pipeline_executed_per_request", float64(pm.Executed)/float64(max(pm.Submitted, 1)), "ratio")
	fsyncs := float64(ws.Fsyncs - ws0.Fsyncs)
	l.put("wal.records_per_fsync", float64(ws.Appends-ws0.Appends)/max(fsyncs, 1), "ratio")
	l.put("wal.fsyncs_per_write", fsyncs/writes, "ratio")
	l.put("wal.bytes_per_write", float64(dirSize(dir)-size0)/writes, "B")
	return nil
}

// walAppend: wal.Log.Append of records the size the pipeline replay
// wrote per write, under the same sync policy and group commit.
func (l *layers) walAppend() error {
	dir, err := l.tempDir()
	if err != nil {
		return err
	}
	lg, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways, GroupCommit: wal.GroupCommit{Enabled: true}})
	if err != nil {
		return err
	}
	defer lg.Close()
	payload := make([]byte, max(16, int(l.out["wal.bytes_per_write"].Value)))
	var ts []float64
	for i := 0; i < min(len(l.ops), 200); i++ {
		payload[i%len(payload)] = byte(i)
		t0 := time.Now()
		if err := lg.Append(payload); err != nil {
			return err
		}
		ts = append(ts, float64(time.Since(t0))/float64(time.Microsecond))
	}
	l.put("wal.append_us", median(ts), "us")
	return nil
}

// mesh: an in-process three-node cluster (-replicate-ack 1) serving a
// minimal batch and metadata endpoint, with an in-process router in
// front. Every write goes through the router, and the batch handler
// times Node.AwaitAck. After each write, the session's metadata is
// read through the router and then straight from the node that
// answered it; the hop is the median of those paired differences, so
// it compares one idempotent request with itself on the same node.
func (l *layers) mesh() error {
	ids := []string{"n1", "n2", "n3"}
	urls := map[string]string{}
	lns := map[string]net.Listener{}
	for _, id := range ids {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		lns[id], urls[id] = ln, "http://"+ln.Addr().String()
	}
	var ackMu sync.Mutex
	var acks []float64
	nodes := map[string]*cluster.Node{}
	stores := map[string]*store.Durable{}
	var servers []*http.Server
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
		for _, s := range servers {
			s.Close()
		}
		for _, d := range stores {
			d.Close()
		}
	}()
	for _, id := range ids {
		dir, err := l.tempDir()
		if err != nil {
			return err
		}
		d, err := store.OpenDurable(dir, durableOpts())
		if err != nil {
			return err
		}
		stores[id] = d
		n, err := cluster.NewNode(d, cluster.NodeOptions{ID: id, Peers: urls, ReplicateAck: 1})
		if err != nil {
			return err
		}
		nodes[id] = n
		mux := http.NewServeMux()
		mux.Handle("/v1/replication/", n.Handler())
		mux.HandleFunc("POST /v1/sessions/{name}/batch", func(w http.ResponseWriter, r *http.Request) {
			var req struct{ Mutations []store.Mutation }
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			name := r.PathValue("name")
			res, err := d.ApplyBatch(r.Context(), name, req.Mutations)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			t0 := time.Now()
			if err := n.AwaitAck(r.Context(), name); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
			ackMu.Lock()
			acks = append(acks, ms(time.Since(t0)))
			ackMu.Unlock()
			json.NewEncoder(w).Encode(res)
		})
		mux.HandleFunc("GET /v1/sessions/{name}", func(w http.ResponseWriter, r *http.Request) {
			m, err := d.Meta(r.PathValue("name"))
			if err != nil {
				http.Error(w, err.Error(), http.StatusNotFound)
				return
			}
			w.Header().Set(servedBy, id)
			json.NewEncoder(w).Encode(m)
		})
		srv := &http.Server{Handler: mux}
		servers = append(servers, srv)
		go srv.Serve(lns[id])
	}
	for _, n := range nodes {
		n.Start()
	}
	ring, err := cluster.NewRing(ids, 0)
	if err != nil {
		return err
	}
	for _, s := range l.sess {
		p := ring.Primary(s.name)
		if err := stores[p].Create(s.name, l.insts[s], s.in.k); err != nil {
			return err
		}
		if _, err := stores[p].Resolve(l.ctx, s.name); err != nil {
			return err
		}
		if err := nodes[p].AwaitAck(l.ctx, s.name); err != nil {
			return err
		}
	}
	rt, err := cluster.NewRouter(cluster.RouterOptions{Peers: urls})
	if err != nil {
		return err
	}
	rt.Start()
	defer rt.Close()
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	rsrv := &http.Server{Handler: rt}
	servers = append(servers, rsrv)
	go rsrv.Serve(rln)
	c := newClient()
	via := "http://" + rln.Addr().String()
	var hops []float64
	for _, op := range l.ops {
		body, _ := json.Marshal(map[string]any{"mutations": []store.Mutation{op.m}})
		if err := call(c, "POST", via+"/v1/sessions/"+op.s.name+"/batch", body, nil); err != nil {
			return err
		}
		path := "/v1/sessions/" + op.s.name
		t0 := time.Now()
		node, err := getServedBy(c, via+path)
		if err != nil {
			return err
		}
		routed := time.Since(t0)
		t1 := time.Now()
		if _, err := getServedBy(c, urls[node]+path); err != nil {
			return err
		}
		hops = append(hops, ms(routed-time.Since(t1)))
	}
	l.put("cluster.ack_wait_ms", median(acks), "ms")
	l.put("sesrouter.hop_ms", median(hops), "ms")
	return nil
}

// servedBy is the header the mesh's nodes name themselves in.
const servedBy = "X-Perfbench-Node"

// getServedBy issues a GET and returns the node that answered it.
func getServedBy(c *http.Client, url string) (string, error) {
	resp, err := c.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	node := resp.Header.Get(servedBy)
	if resp.StatusCode != http.StatusOK || node == "" {
		return "", fmt.Errorf("GET %s: status %d, served by %q", url, resp.StatusCode, node)
	}
	return node, nil
}

// obsOverhead: Pipeline.ApplyBatch on a store with observability
// installed and every call under a root trace (as the daemon runs
// mutations), minus the same call on a store without it.
func (l *layers) obsOverhead() error {
	o := ses.NewObservability(ses.ObservabilityOptions{})
	stores := []*store.Store{ses.NewStore(), ses.NewStore(ses.WithObservability(o))}
	var pipes []*store.Pipeline
	for _, st := range stores {
		for _, s := range l.sess {
			if err := st.Create(s.name, l.insts[s], s.in.k); err != nil {
				return err
			}
			if _, err := st.Resolve(l.ctx, s.name); err != nil {
				return err
			}
		}
		p := ses.NewPipeline(st)
		defer p.Close()
		pipes = append(pipes, p)
	}
	// Each op runs on both stores, in alternating order so neither
	// side always goes first; the overhead is the median of the
	// per-op differences.
	var diffs []float64
	for k, op := range l.ops {
		var took [2]float64
		for j := range pipes {
			i := (j + k) % 2
			ctx := l.ctx
			var root *obs.Span
			if i == 1 {
				ctx, root = o.Tracer.StartRoot(ctx, obs.SpanHandler, obs.NewTraceID())
			}
			t0 := time.Now()
			if _, err := pipes[i].ApplyBatch(ctx, op.s.name, []store.Mutation{op.m}); err != nil {
				return err
			}
			root.End()
			took[i] = float64(time.Since(t0)) / float64(time.Microsecond)
		}
		diffs = append(diffs, took[1]-took[0])
	}
	l.put("obs.apply_overhead_us", median(diffs), "us")
	return nil
}

// recoverDir: store.OpenDurable over the run's data dir, after sesd is
// stopped.
func (l *layers) recoverDir() error {
	l.r.sesd.kill()
	t0 := time.Now()
	d, err := store.OpenDurable(filepath.Join(l.r.dir, "data"), durableOpts())
	if err != nil {
		return err
	}
	l.put("store.recover_s", time.Since(t0).Seconds(), "s")
	return d.Close()
}

// tail applies the benchmark's tail rule, falling back to the maximum
// when there are too few samples for it.
func tail(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p, ok := tailPercentile(len(s)); ok {
		return percentile(s, p)
	}
	return percentile(s, 100)
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(max(len(xs), 1))
}

// dirSize is the total size of the regular files under dir.
func dirSize(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err == nil && e.Type().IsRegular() {
			if fi, err := e.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}
