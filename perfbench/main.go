// Command perfbench is the repository benchmark: it runs one seeded
// workload against the log-structured file system through the public
// lfs API, checks every output against the generator's model, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer breakdown)
// with the result object as the last line of standard output.
//
//	perfbench --workload churn --seed 1 --seconds 10 --trace 0
//
// NOTES.md explains the workloads and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/lfs"
)

const (
	// A run sets up at least minSetups and at most maxSetups times, until
	// the set-ups have taken setupBudget; setup_s is their median.
	minSetups      = 5
	maxSetups      = 15
	setupBudget    = 3 * time.Second
	recoveryRounds = 15 // power cuts per run; recovery_sim_s is their median
	windows        = 8  // windows per measured phase; host-time metrics are their median
	minSamples     = 1000
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: smallfile, hotread, churn or syncstorm")
	flag.Int64Var(&cfg.seed, "seed", 1, "input generator seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting the per-layer metrics")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for result files, spans and profiles")
	flag.Parse()
	cfg.trace = trace == 1
	w := findWorkload(cfg.workload)
	if w == nil || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", cfg.workload, cfg.seconds, trace)
		os.Exit(2)
	}
	res, err := execute(w, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	// A run that completes prints its result and exits 0 even when a
	// check failed: the failure is reported by "correct" and "failed".
	if err := res.write(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	host    map[string]interface{}
	errs    []string
	samples map[string]int
	notes   []string
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// write prints the human-readable report, saves the full record under
// cfg.out and prints the result object as the last line.
func (r *result) write(cfg config) error {
	host, _ := json.Marshal(r.host)
	fmt.Printf("host %s\n", host)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		extra := ""
		if s, ok := r.samples[n]; ok {
			extra = fmt.Sprintf("  (n=%d)", s)
		}
		fmt.Printf("%-32s %14.4f %s%s\n", n, m.Value, m.Unit, extra)
	}
	for _, s := range r.notes {
		fmt.Println(s)
	}
	fmt.Printf("ops_failed_frac %g (%d of %d)\n", float64(r.Failed)/float64(r.Attempted), r.Failed, r.Attempted)
	for _, e := range r.errs {
		fmt.Printf("error: %s\n", e)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	rec, err := json.MarshalIndent(map[string]interface{}{"host": r.host, "result": r,
		"samples": r.samples, "errors": r.errs, "notes": r.notes}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v.json", cfg.workload, cfg.seed, cfg.trace)
	if err := os.WriteFile(filepath.Join(cfg.out, name), rec, 0o644); err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// hostShape records what the numbers were measured on.
func hostShape(cfg config) map[string]interface{} {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]interface{}{"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model": model, "go_version": runtime.Version(), "seed": cfg.seed,
		"workload": cfg.workload, "seconds": cfg.seconds, "trace": cfg.trace}
}

// prepare builds the seeded inputs shared by every set-up of a run.
func prepare(w *workload, seed int64) *env {
	e := &env{w: w, g: newGen(seed, 40*1024)}
	w.prepare(e)
	return e
}

// setup formats a fresh file system and populates it; the returned
// duration is the set-up time.
func setup(tmpl *env, tr *lfs.Tracer, seconds int) (*env, time.Duration, error) {
	e := *tmpl
	w := e.w
	e.m = newModel(len(e.paths), e.unitsPF)
	copy(e.m.unitSize, e.sizes)
	e.opts = w.opts
	e.opts.Tracer = tr
	e.clients = nil
	for i := 0; i < w.clients; i++ {
		e.clients = append(e.clients, newClient(&e, i, w.latCaps(seconds)))
	}
	t0 := time.Now()
	e.d = lfs.NewDisk(w.diskBlocks)
	fs, err := lfs.Format(e.d, e.opts)
	if err != nil {
		return nil, 0, fmt.Errorf("format: %w", err)
	}
	e.fs = fs
	if err := w.populate(&e); err != nil {
		return nil, 0, fmt.Errorf("populate: %w", err)
	}
	el := time.Since(t0)
	for _, c := range e.clients {
		if c.failed > 0 {
			return nil, 0, fmt.Errorf("warm-up: %s", strings.Join(c.errs, "; "))
		}
		c.reset()
	}
	return &e, el, nil
}

// release unmounts an env that will not be measured and returns its
// memory, so the next set-up starts from the same heap.
func (e *env) release() error {
	err := e.fs.Unmount()
	e.fs, e.d, e.clients = nil, nil, nil
	runtime.GC()
	debug.FreeOSMemory()
	return err
}

// runFor drives every client in a closed loop until d elapses (d > 0)
// or each has completed n ops (n > 0). A timed run is cut into windows
// of equal length: each client marks where every window began in its own
// counters, and runFor returns the windows' host-time boundaries.
func runFor(e *env, d time.Duration, n int) []time.Time {
	var stop atomic.Bool
	var win atomic.Int32
	var wg sync.WaitGroup
	for _, c := range e.clients {
		c.marks = append(c.marks[:0], c.mark())
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			cur := int32(0)
			for i := 0; (n == 0 || i < n) && !stop.Load(); i++ {
				for w := win.Load(); cur < w; cur++ {
					c.marks = append(c.marks, c.mark())
				}
				e.w.op(c)
			}
		}(c)
	}
	var bounds []time.Time
	if d > 0 {
		t0 := time.Now()
		bounds = append(bounds, t0)
		for k := 1; k < windows; k++ {
			time.Sleep(time.Until(t0.Add(d * time.Duration(k) / windows)))
			win.Store(int32(k))
			bounds = append(bounds, time.Now())
		}
		time.Sleep(time.Until(t0.Add(d)))
		stop.Store(true)
	}
	wg.Wait()
	end := time.Now()
	for _, c := range e.clients {
		// A client still in an op when the last edges passed ends here.
		for len(c.marks) < len(bounds)+1 {
			c.marks = append(c.marks, c.mark())
		}
	}
	return append(bounds, end)
}

// window is one window of a measured phase: its host time, the ops
// completed in it and their latency samples per class.
type window struct {
	wall time.Duration
	ops  int64
	lat  [numClasses][]uint32
}

// phase is what one measured phase produced.
type phase struct {
	wall     time.Duration
	ops      int64
	failed   int64
	payload  int64
	wins     []window
	st       lfs.Stats
	disk     lfs.DiskStats // delta over the phase
	spaceAmp float64
	errs     []string
}

// measure runs the clients for the given time and gathers the counters.
func measure(e *env, d time.Duration) *phase {
	e.fs.ResetStats()
	e.fs.Tracer().ResetMetrics()
	d0 := e.d.Stats()
	t0 := time.Now()
	for _, c := range e.clients {
		c.base = t0
	}
	bounds := runFor(e, d, 0)
	p := &phase{wall: bounds[len(bounds)-1].Sub(bounds[0]), st: e.fs.Stats(), disk: e.d.Stats().Sub(d0)}
	p.wins = make([]window, len(bounds)-1)
	for k := range p.wins {
		p.wins[k].wall = bounds[k+1].Sub(bounds[k])
	}
	for _, c := range e.clients {
		p.ops += c.ops
		p.failed += c.failed
		p.payload += c.payload
		p.errs = append(p.errs, c.errs...)
		for k := range p.wins {
			a, b := c.marks[k], c.marks[k+1]
			w := &p.wins[k]
			w.ops += b.ops - a.ops
			for i := range w.lat {
				w.lat[i] = append(w.lat[i], c.lat[i][a.lat[i]:b.lat[i]]...)
			}
		}
	}
	p.spaceAmp = e.spaceAmp()
	if e.lastSpaceAmp > 0 {
		// smallfile's live data swings from none to all of its files
		// within a cycle; it samples where they all exist.
		p.spaceAmp = e.lastSpaceAmp
	}
	return p
}

// rates is each window's ops per host second.
func (p *phase) rates() []float64 {
	var v []float64
	for _, w := range p.wins {
		v = append(v, float64(w.ops)/w.wall.Seconds())
	}
	return v
}

// opsPerS is the median over the windows of ops per host second.
func (p *phase) opsPerS() float64 { return median(p.rates()) }

// spaceAmp is the bytes held by non-clean segments per live user byte.
func (e *env) spaceAmp() float64 {
	used := (e.fs.NumSegments() - int64(e.fs.CleanSegments())) * e.fs.SegmentBytes()
	return float64(used) / float64(e.m.liveBytes())
}

// recovery is what the power-cut rounds measured.
type recovery struct {
	simS, hostMs, rfWrites []float64
}

// powerCuts runs recoveryRounds rounds of: checkpoint, a fixed tail of
// the workload's own ops ending in a returned Sync, power cut, Mount,
// and a read-back of every file against the acknowledged versions.
func powerCuts(e *env) (*recovery, error) {
	rec := &recovery{}
	c := e.clients[0]
	if e.w.beforeCuts != nil {
		e.w.beforeCuts(e)
	}
	for r := 0; r < recoveryRounds; r++ {
		if err := e.fs.Checkpoint(); err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		for i := 0; i < e.w.tailOps; i++ {
			e.w.op(c)
		}
		if err := e.fs.Sync(); err != nil {
			return nil, fmt.Errorf("sync before power cut: %w", err)
		}
		if c.failed > 0 {
			return nil, fmt.Errorf("tail ops: %s", strings.Join(c.errs, "; "))
		}
		e.d.Crash()
		// Unmount only stops the FS goroutines: its checkpoint fails on
		// the crashed device, as a power cut demands.
		_ = e.fs.Unmount()
		e.d.Reopen()
		t0 := time.Now()
		fs, err := lfs.Mount(e.d, e.opts)
		host := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("mount after power cut: %w", err)
		}
		e.fs = fs
		rec.simS = append(rec.simS, e.d.Stats().BusyTime.Seconds())
		rec.hostMs = append(rec.hostMs, float64(host.Nanoseconds())/1e6)
		rec.rfWrites = append(rec.rfWrites, float64(fs.Stats().RollForwardWrites))
		if err := e.verifyAll(); err != nil {
			return nil, fmt.Errorf("after power cut %d: %w", r, err)
		}
	}
	return rec, nil
}

// finish runs the consistency check and unmounts.
func finish(e *env) error {
	rep, err := e.fs.Check()
	if err != nil {
		return fmt.Errorf("check: %w", err)
	}
	if len(rep.Problems) > 0 {
		return fmt.Errorf("check: %d problems, first: %s", len(rep.Problems), rep.Problems[0])
	}
	return e.fs.Unmount()
}

func execute(w *workload, cfg config) (*result, error) {
	tmpl := prepare(w, cfg.seed)
	res := &result{Metrics: map[string]metric{}, host: hostShape(cfg), samples: map[string]int{}}
	if cfg.trace {
		return res, traced(tmpl, cfg, res)
	}
	var setups []float64
	var total time.Duration
	var e *env
	for i := 0; i < maxSetups && (i < minSetups || total < setupBudget); i++ {
		if e != nil {
			if err := e.release(); err != nil {
				return nil, err
			}
		}
		var el time.Duration
		var err error
		if e, el, err = setup(tmpl, nil, cfg.seconds); err != nil {
			return nil, err
		}
		setups = append(setups, el.Seconds())
		total += el
	}
	p := measure(e, time.Duration(cfg.seconds)*time.Second)
	res.Attempted, res.Failed, res.errs = p.ops, p.failed, p.errs
	rec, err := powerCuts(e)
	if err == nil {
		err = finish(e)
	}
	if err != nil {
		// A failed recovery read-back or consistency check counts as
		// one more failed op.
		res.Attempted++
		res.Failed++
		res.errs = append(res.errs, err.Error())
	}
	res.Correct = res.Failed == 0
	endToEnd(res, p)
	if rec != nil {
		res.set("recovery_sim_s", median(rec.simS), "s")
		res.notes = append(res.notes, fmt.Sprintf("recovery rounds (simulated s): %.3f", rec.simS))
	}
	res.set("setup_s", median(setups), "s")
	res.samples["setup_s"] = len(setups)
	res.set("peak_rss_mb", peakRSSMB(), "MB")
	return res, nil
}

// endToEnd fills the metrics a phase yields directly. Host-time metrics
// are medians over the phase's windows, so a burst of host noise in one
// window does not move them.
func endToEnd(res *result, p *phase) {
	res.set("ops_per_s", p.opsPerS(), "1/s")
	res.notes = append(res.notes, fmt.Sprintf("ops/s per window: %.0f", p.rates()))
	for cls, name := range [numClasses]string{"write", "read", "sync"} {
		total, least := 0, -1
		for _, w := range p.wins {
			s := w.lat[cls]
			sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
			total += len(s)
			if least < 0 || len(s) < least {
				least = len(s)
			}
		}
		res.notes = append(res.notes, fmt.Sprintf("%s samples: %d, at least %d per window", name, total, least))
		if total < minSamples {
			res.notes = append(res.notes, fmt.Sprintf("%s percentiles omitted: %d samples < %d", name, total, minSamples))
			continue
		}
		for _, q := range []int{50, 99} {
			var v []float64
			for _, w := range p.wins {
				if s := w.lat[cls]; len(s) > 0 {
					v = append(v, float64(s[(len(s)-1)*q/100])/1e3)
				}
			}
			n := fmt.Sprintf("%s_p%d_us", name, q)
			res.set(n, median(v), "us")
			res.notes = append(res.notes, fmt.Sprintf("%s per window: %.1f", n, v))
			res.samples[n] = total
		}
	}
	res.set("sim_ops_per_s", float64(p.ops)/p.disk.BusyTime.Seconds(), "1/s")
	res.set("write_cost", p.st.WriteCost(), "ratio")
	res.set("write_amp", float64(p.disk.BlocksWritten*4096)/float64(p.payload), "ratio")
	res.set("space_amp", p.spaceAmp, "ratio")
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// peakRSSMB reads the process's resident-memory high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(l, "VmHWM:") {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(l, "VmHWM:")), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}
