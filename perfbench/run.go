package main

import (
	"context"
	"debug/buildinfo"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"ses/internal/session"
)

// sample is one timed operation.
type sample struct {
	class string        // "write" or "read"
	at    time.Duration // intended start, from the phase start
	lat   time.Duration
	lag   time.Duration
	err   error
}

// readRec is a read kept for validation after the phase: it must
// equal some committed version in [lo, hi].
type readRec struct {
	s      *sess
	lo, hi int64
	sched  *schedResp
	meta   *metaResp
	op     *sample
}

// run is one benchmark invocation.
type run struct {
	w       *workload
	seed    uint64
	seconds int
	traced  bool
	bin     string
	dir     string
	workers int

	inputs   []*input
	sessions []*sess
	sesd     *daemon
	clients  []*http.Client

	mu      sync.Mutex
	samples []*sample // every operation, including set-up and checks
	reads   []*readRec
	open    []*sample // open-loop phase only
	broken  []string  // run-level check failures
}

func (r *run) note(s *sample) *sample {
	r.mu.Lock()
	r.samples = append(r.samples, s)
	r.mu.Unlock()
	return s
}

// prepare lays out the sesd process of the workload, with its data
// dir under r.dir.
func (r *run) prepare() error {
	a, err := freeAddr()
	if err != nil {
		return err
	}
	args := append([]string{"-addr", a, "-data-dir", filepath.Join(r.dir, "data")}, sesdFlags...)
	r.sesd, err = newDaemon(r.dir, "sesd", filepath.Join(r.bin, "sesd"), args, "http://"+a)
	return err
}

func (r *run) stopAll() {
	if r.sesd != nil {
		r.sesd.kill()
		r.sesd.log.Close()
	}
}

// setup starts sesd on an empty data dir and creates and first-
// resolves every session; it returns the time from launch to the last
// session's first resolve.
func (r *run) setup() (time.Duration, error) {
	r.sesd.kill()
	os.RemoveAll(filepath.Join(r.dir, "data"))
	for i, s := range r.sessions {
		r.sessions[i] = newSess(i, s.in)
	}
	t0 := time.Now()
	if err := r.sesd.start(); err != nil {
		return 0, err
	}
	if err := waitReady(r.clients[0], r.sesd.url+"/v1/readyz", r.sesd, 30*time.Second); err != nil {
		return 0, err
	}
	err := r.parallel(func(w int, c *http.Client) error {
		for _, s := range r.sessions {
			if s.idx%r.workers != w {
				continue
			}
			op := r.note(&sample{class: "setup"})
			if op.err = call(c, "POST", r.sesd.url+"/v1/sessions", s.in.body, nil); op.err != nil {
				return op.err
			}
			var d delta
			if op.err = call(c, "POST", r.sesd.url+"/v1/sessions/"+s.name+"/resolve", nil, &d); op.err != nil {
				return op.err
			}
			s.commit(nil, &d, op)
		}
		return nil
	})
	return time.Since(t0), err
}

// parallel runs fn once per worker connection and joins the errors.
func (r *run) parallel(fn func(w int, c *http.Client) error) error {
	errs := make([]error, r.workers)
	var wg sync.WaitGroup
	for w := 0; w < r.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = fn(w, r.clients[w])
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// write sends the session's next seeded mutation as a one-mutation
// batch and records the committed version.
func (r *run) write(c *http.Client, s *sess, op *sample) {
	if s.broken {
		op.err = fmt.Errorf("session %s broken by an earlier failed write", s.name)
		return
	}
	m := s.nextMutation(r.seed, r.w.mix)
	body, _ := json.Marshal(map[string]any{"mutations": []*mutation{m}})
	s.sent.Add(1)
	var resp batchResp
	err := call(c, "POST", r.sesd.url+"/v1/sessions/"+s.name+"/batch", body, &resp)
	if err == nil && resp.Delta == nil {
		err = errors.New("batch response without delta")
	}
	if err == nil {
		err = s.acknowledge(m, &resp)
	}
	if err != nil {
		s.broken, op.err = true, err
		return
	}
	s.commit(m, resp.Delta, op)
}

// read fetches the schedule or the metadata of a session and keeps it
// for validation.
func (r *run) read(c *http.Client, s *sess, schedule bool, op *sample) {
	rec := &readRec{s: s, op: op, lo: s.acked.Load()}
	if schedule {
		rec.sched = &schedResp{}
		op.err = call(c, "GET", r.sesd.url+"/v1/sessions/"+s.name+"/schedule", nil, rec.sched)
	} else {
		rec.meta = &metaResp{}
		op.err = call(c, "GET", r.sesd.url+"/v1/sessions/"+s.name, nil, rec.meta)
	}
	rec.hi = s.sent.Load()
	if op.err == nil {
		r.mu.Lock()
		r.reads = append(r.reads, rec)
		r.mu.Unlock()
	}
}

// opSpec is one scheduled open-loop operation.
type opSpec struct {
	at       time.Duration
	s        *sess
	write    bool
	schedule bool
}

// openLoopOps lays out the seeded open-loop stream per connection:
// writes and reads at fixed total rate, in exact proportion, on a
// (Zipf-)skewed choice of session, or the workload's phased layout.
func (r *run) openLoopOps(dur time.Duration) [][]opSpec {
	per := make([][]opSpec, r.workers)
	rg := newRNG(r.seed, "arrivals")
	reads := 0
	if p := r.w.phased; p != nil {
		period := time.Duration(float64(time.Second) / r.w.writeRate)
		order := make([]int, len(r.sessions))
		for i := range order {
			j := rg.intn(i + 1)
			order[i], order[j] = order[j], i
		}
		rd := r.workers - 1
		for k := 0; k < int(dur/period); k++ {
			at := time.Duration(k) * period
			s := r.sessions[order[k%len(order)]]
			per[0] = append(per[0], opSpec{at: at, s: s, write: true})
			per[rd] = append(per[rd], opSpec{at: at + p.overlapAfter, s: s, schedule: true})
			for j := 0; j < p.lateReads; j++ {
				off := p.lateFrom + (1-p.lateFrom)*float64(j)/float64(p.lateReads)
				o := opSpec{at: at + time.Duration(off*float64(period)), s: r.sessions[rg.intn(len(r.sessions))]}
				o.schedule = reads%2 == 0
				reads++
				per[rd] = append(per[rd], o)
			}
		}
		for _, ops := range per {
			sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
		}
		return per
	}
	rate := r.w.writeRate + r.w.readRate
	z := newZipf(len(r.sessions), r.w.skew)
	for i := 0; i < int(rate*dur.Seconds()); i++ {
		o := opSpec{at: time.Duration(float64(i) / rate * float64(time.Second))}
		o.write = int(float64(i+1)*r.w.writeRate/rate) > int(float64(i)*r.w.writeRate/rate)
		o.s = r.sessions[z.draw(rg)]
		if !o.write {
			o.schedule = reads%2 == 0
			reads++
		}
		w := o.s.idx % r.workers
		per[w] = append(per[w], o)
	}
	return per
}

// openLoop runs the stream, timing every operation from its intended
// send time.
func (r *run) openLoop(dur time.Duration) {
	per := r.openLoopOps(dur)
	start := time.Now().Add(20 * time.Millisecond)
	r.parallel(func(w int, c *http.Client) error {
		ats := make([]time.Duration, len(per[w]))
		ops := make([]*sample, len(per[w]))
		for i, o := range per[w] {
			ats[i] = o.at
			ops[i] = &sample{class: "read", at: o.at}
		}
		lat, lag := paced(start, ats, func(i int) {
			o, op := per[w][i], ops[i]
			if o.write {
				op.class = "write"
				r.write(c, o.s, op)
			} else {
				r.read(c, o.s, o.schedule, op)
			}
		})
		r.mu.Lock()
		defer r.mu.Unlock()
		for i, op := range ops {
			op.lat, op.lag = lat[i], lag[i]
			r.samples = append(r.samples, op)
			r.open = append(r.open, op)
		}
		return nil
	})
}

// paced runs fn(i) at start+ats[i] in order, never early, and returns
// each call's latency measured from its intended start (so a stall
// is charged to every call it delays) and how late each call began.
func paced(start time.Time, ats []time.Duration, fn func(i int)) (lat, lag []time.Duration) {
	lat, lag = make([]time.Duration, len(ats)), make([]time.Duration, len(ats))
	for i, at := range ats {
		due := start.Add(at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lag[i] = time.Since(due)
		fn(i)
		lat[i] = time.Since(due)
	}
	return lat, lag
}

// closedLoop sends a fixed number of writes, each connection keeping
// one outstanding and cycling over its own sessions. It returns the
// writes completed per second while every connection was still busy,
// so a connection that finishes early does not dilute the rate.
func (r *run) closedLoop(total int) float64 {
	done := make([][]time.Duration, r.workers)
	start := time.Now()
	r.parallel(func(w int, c *http.Client) error {
		var mine []*sess
		for _, s := range r.sessions {
			if s.idx%r.workers == w {
				mine = append(mine, s)
			}
		}
		for i := 0; i < total/r.workers; i++ {
			op := &sample{class: "write"}
			t := time.Now()
			r.write(c, mine[i%len(mine)], op)
			op.lat = time.Since(t)
			done[w] = append(done[w], time.Since(start))
			r.note(op)
		}
		return nil
	})
	busy := done[0][len(done[0])-1]
	for _, d := range done {
		busy = min(busy, d[len(d)-1])
	}
	n := 0
	for _, d := range done {
		for _, t := range d {
			if t <= busy {
				n++
			}
		}
	}
	return float64(n) / busy.Seconds()
}

// warmUp sends one write per session before anything is timed.
func (r *run) warmUp() {
	r.parallel(func(w int, c *http.Client) error {
		for _, s := range r.sessions {
			if s.idx%r.workers == w {
				r.write(c, s, r.note(&sample{class: "warmup"}))
			}
		}
		return nil
	})
}

// validate replays each session's commits through its shadow and the
// oracle, then matches every read to a committed version.
func (r *run) validate() map[*sess]*shadow {
	finals := map[*sess]*shadow{}
	for _, s := range r.sessions {
		sh, err := newShadow(s.in.doc, s.in.k)
		if err != nil {
			r.broken = append(r.broken, err.Error())
			continue
		}
		for _, v := range s.versions {
			if v.mut != nil {
				sh.apply(v.mut)
			}
			if err := sh.check(v.sched, v.util); err != nil && v.op.err == nil {
				v.op.err = fmt.Errorf("%s: %w", s.name, err)
			}
		}
		finals[s] = sh
	}
	for _, rd := range r.reads {
		if err := rd.match(); err != nil {
			rd.op.err = err
		}
	}
	return finals
}

// match finds a committed version in [lo, hi] equal to the read.
func (rd *readRec) match() error {
	s := rd.s
	for v := rd.lo; v <= rd.hi && int(v) < len(s.versions); v++ {
		ver := s.versions[v]
		if rd.sched != nil && ver.util == rd.sched.Utility && sameSchedule(ver.sched, rd.sched.Assignments) {
			return nil
		}
		if rd.meta != nil && ver.util == rd.meta.Utility && rd.meta.Scheduled == len(ver.sched) &&
			rd.meta.Batches == uint64(v) {
			return nil
		}
	}
	return fmt.Errorf("read of %s %w in [%d,%d]", s.name, errNoVersion, rd.lo, rd.hi)
}

// checkFinal requires each session's served schedule to equal its last
// acknowledged version, and that version to equal the first resolve of
// a fresh session built from the shadow with the same pins,
// cancellations and k.
func (r *run) checkFinal(finals map[*sess]*shadow) {
	for _, s := range r.sessions {
		last := s.versions[len(s.versions)-1]
		var got schedResp
		if err := call(r.clients[0], "GET", r.sesd.url+"/v1/sessions/"+s.name+"/schedule", nil, &got); err != nil {
			r.broken = append(r.broken, err.Error())
			continue
		}
		if got.Utility != last.util || !sameSchedule(got.Assignments, last.sched) {
			r.broken = append(r.broken, fmt.Sprintf("%s: served schedule differs from the last acknowledged one", s.name))
		}
		sh := finals[s]
		if sh == nil {
			continue
		}
		if err := freshMatches(sh, last); err != nil {
			r.broken = append(r.broken, fmt.Sprintf("%s: %v", s.name, err))
		}
	}
}

func freshMatches(sh *shadow, last version) error {
	inst, err := sh.doc().Instance()
	if err != nil {
		return err
	}
	fresh, err := session.New(inst, sh.k, session.Options{})
	if err != nil {
		return err
	}
	for e, ev := range sh.events {
		if ev.cancelled {
			if err := fresh.CancelEvent(e); err != nil {
				return err
			}
		}
	}
	for e, t := range sh.pins {
		if err := fresh.Pin(e, t); err != nil {
			return err
		}
	}
	if _, err := fresh.Resolve(context.Background()); err != nil {
		return err
	}
	var got []assign
	for _, a := range fresh.Schedule() {
		got = append(got, assign{a.Event, a.Interval})
	}
	if !sameSchedule(got, last.sched) || !closeRel(fresh.Utility(), last.util, 1e-9) {
		return fmt.Errorf("final schedule (Ω %.12g) differs from a fresh session's (Ω %.12g)", last.util, fresh.Utility())
	}
	return nil
}

// recover kills sesd with SIGKILL, restarts it over the same data dir
// and returns the time until it is ready and every acknowledged write
// is verified present.
func (r *run) recover() (time.Duration, error) {
	victim := r.sesd
	victim.kill()
	t0 := time.Now()
	if err := victim.start(); err != nil {
		return 0, err
	}
	c := r.clients[0]
	if err := waitReady(c, victim.url+"/v1/readyz", victim, 60*time.Second); err != nil {
		return 0, err
	}
	for _, s := range r.sessions {
		op := r.note(&sample{class: "recover"})
		last := s.versions[len(s.versions)-1]
		var m metaResp
		if op.err = call(c, "GET", victim.url+"/v1/sessions/"+s.name, nil, &m); op.err != nil {
			return 0, op.err
		}
		if m.Mutations < s.mutations || m.Batches < uint64(s.acked.Load()) {
			r.broken = append(r.broken, fmt.Sprintf("%s: recovered counters %d mutations/%d batches below acknowledged %d/%d",
				s.name, m.Mutations, m.Batches, s.mutations, s.acked.Load()))
		}
		var got schedResp
		if op.err = call(c, "GET", victim.url+"/v1/sessions/"+s.name+"/schedule", nil, &got); op.err != nil {
			return 0, op.err
		}
		if got.Utility != last.util || !sameSchedule(got.Assignments, last.sched) {
			r.broken = append(r.broken, fmt.Sprintf("%s: recovered schedule differs from the last acknowledged one", s.name))
		}
	}
	return time.Since(t0), nil
}

// host describes where the run happened.
func (r *run) host() map[string]any {
	rev := "unknown"
	if bi, err := buildinfo.ReadFile(filepath.Join(r.bin, "sesd")); err == nil {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "rev": rev, "connections": r.workers,
	}
}

// execute runs every phase and assembles the result.
func (r *run) execute() (*result, error) {
	var err error
	if r.inputs, err = genInputs(r.w, r.seed, r.dir); err != nil {
		return nil, err
	}
	for i, in := range r.inputs {
		r.sessions = append(r.sessions, newSess(i, in))
	}
	for w := 0; w < r.workers; w++ {
		r.clients = append(r.clients, newClient())
	}
	if err := r.prepare(); err != nil {
		return nil, err
	}
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		r.samples = nil
		d, err := r.setup()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	r.warmUp()

	var before map[string]stageSum
	if r.traced {
		if before, err = r.scrapeStages(); err != nil {
			return nil, err
		}
	}
	openDur := time.Duration(float64(r.seconds) * 0.75 * float64(time.Second))
	steal0, err := hostSteal()
	if err != nil {
		return nil, err
	}
	ticks0, err := cpuTicks(r.sesd.pid())
	if err != nil {
		return nil, err
	}
	r.openLoop(openDur)
	ticks1, err := cpuTicks(r.sesd.pid())
	if err != nil {
		return nil, err
	}
	wps := r.closedLoop(max(r.workers, int(r.w.closedPerSec*float64(r.seconds))))
	steal1, err := hostSteal()
	if err != nil {
		return nil, err
	}
	rss, err := vmHWM(r.sesd.pid())
	if err != nil {
		return nil, err
	}
	var stages map[string]float64
	if r.traced {
		after, err := r.scrapeStages()
		if err != nil {
			return nil, err
		}
		if stages, err = stageDeltas(before, after); err != nil {
			return nil, err
		}
	}

	finals := r.validate()
	r.checkFinal(finals)
	var recovs []float64
	for rep := 0; rep < recovReps; rep++ {
		d, err := r.recover()
		if err != nil {
			return nil, fmt.Errorf("recovery: %w", err)
		}
		recovs = append(recovs, d.Seconds())
	}

	res := &result{Correct: len(r.broken) == 0, Metrics: map[string]metric{}}
	perClass := map[string][2]int{}
	for _, s := range r.samples {
		c := perClass[s.class]
		c[0]++
		res.Attempted++
		if s.err != nil {
			c[1]++
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: failed %s: %v\n", s.class, s.err)
		}
		perClass[s.class] = c
	}
	for _, b := range r.broken {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", b)
	}

	var writes, reads []*sample
	var lags []float64
	for _, s := range r.open {
		lags = append(lags, ms(s.lag))
		if s.err != nil {
			continue
		}
		if s.class == "write" {
			writes = append(writes, s)
		} else {
			reads = append(reads, s)
		}
	}
	wt, err1 := windowLatency(writes, openDur, r.w.windows)
	rt, err2 := windowLatency(reads, openDur, r.w.windows)
	if err := errors.Join(err1, err2); err != nil {
		return nil, err
	}
	cpuPerOp := float64(ticks1-ticks0) * ms(clockTick) / float64(max(len(writes)+len(reads), 1))
	sort.Float64s(lags)
	info := map[string]any{
		"workload": r.w.name, "seed": r.seed, "seconds": r.seconds, "host": r.host(),
		"ops": perClass, "write_samples": len(writes), "read_samples": len(reads),
		"write_tail": wt.describe(), "read_tail": rt.describe(),
		"generator_lag_ms": map[string]float64{"p50": percentile(lags, 50), "p99": percentile(lags, 99), "max": percentile(lags, 100)},
		"setup_s":          setups, "recover_s": recovs, "max_wps": wps,
		"host_steal": steal1.since(steal0),
	}
	line, _ := json.Marshal(info)
	fmt.Println("# " + string(line))

	if r.traced {
		layers, err := r.replayLayers()
		if err != nil {
			return nil, fmt.Errorf("layer replay: %w", err)
		}
		for k, v := range stages {
			layers[k] = metric{v, "ms"}
		}
		res.Metrics = layers
		return res, nil
	}
	m := res.Metrics
	m["setup_s"] = metric{median(setups), "s"}
	m["write_p50_ms"] = metric{wt.p50, "ms"}
	m["write_tail_ms"] = metric{wt.tail, "ms"}
	m["read_p50_ms"] = metric{rt.p50, "ms"}
	m["read_tail_ms"] = metric{rt.tail, "ms"}
	m["cpu_ms_per_op"] = metric{cpuPerOp, "ms"}
	m["peak_rss_mb"] = metric{float64(rss) / (1 << 20), "MB"}
	return res, nil
}
