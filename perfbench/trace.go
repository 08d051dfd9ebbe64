package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/layout"
	"repro/internal/obs"
	"repro/lfs"
)

// mutexProfileRate samples one in this many contention events.
const mutexProfileRate = 5

// sink is the traced run's in-memory obs sink. It keeps the aggregates
// the per-layer table needs rather than every event.
type sink struct {
	mu       sync.Mutex
	ios      int64
	seqIOs   int64
	cpBytes  int64
	cleaning bool          // between a step's first candidate and its pass
	cleanSim time.Duration // device time of the disk.io events in there
}

// Emit implements lfs.TraceSink.
func (s *sink) Emit(ev lfs.TraceEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch ev.Kind {
	case obs.KindDiskIO:
		s.ios++
		if ev.Disk.Sequential {
			s.seqIOs++
		}
		if s.cleaning {
			s.cleanSim += ev.Disk.Seek + ev.Disk.Rotation + ev.Disk.Transfer
		}
	case obs.KindCleanerCandidate:
		s.cleaning = true
	case obs.KindCleanerPass:
		s.cleaning = false
	case obs.KindCheckpoint:
		s.cpBytes += ev.Checkpoint.Bytes
	}
}

func (s *sink) snapshot() sink {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sink{ios: s.ios, seqIOs: s.seqIOs, cpBytes: s.cpBytes, cleanSim: s.cleanSim}
}

func (s *sink) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ios, s.seqIOs, s.cpBytes, s.cleanSim = 0, 0, 0, 0
}

var runtimeNames = []string{
	"/sync/mutex/wait/total:seconds",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/sched/latencies:seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func rtFloat(v metrics.Value) float64 {
	if v.Kind() == metrics.KindUint64 {
		return float64(v.Uint64())
	}
	if v.Kind() == metrics.KindFloat64 {
		return v.Float64()
	}
	return 0
}

// histP99 is the 99th percentile of the difference of two snapshots of
// a runtime histogram, read as the upper edge of its bucket.
func histP99(a, b *metrics.Float64Histogram) float64 {
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	var cum uint64
	for i := range b.Counts {
		cum += b.Counts[i] - a.Counts[i]
		if cum*100 >= total*99 {
			if hi := b.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return b.Buckets[i]
		}
	}
	return 0
}

// traced runs the untraced reference phase, then the traced phase with
// spans, the obs sink and the CPU profile, and reports per_layer. The
// runtime/metrics deltas (mutex wait, heap allocations, GC, scheduling)
// and the mutex profile come from the reference phase, because the
// traced phase adds locks and allocations of its own.
func traced(tmpl *env, cfg config, res *result) error {
	// The two phases share the run's --seconds.
	d := time.Duration(cfg.seconds) * time.Second / 2
	dir := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cpuPath, mutexPath := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mutex.pprof")

	e, _, err := setup(tmpl, nil, cfg.seconds)
	if err != nil {
		return err
	}
	runtime.SetMutexProfileFraction(mutexProfileRate)
	rt0 := readRuntime()
	plain := measure(e, d)
	rt1 := readRuntime()
	runtime.SetMutexProfileFraction(0)
	if err := writeProfile("mutex", mutexPath); err != nil {
		return err
	}
	res.Attempted, res.Failed = plain.ops, plain.failed
	res.errs = append(res.errs, plain.errs...)
	if err := e.release(); err != nil {
		return err
	}

	sk := &sink{}
	if e, _, err = setup(tmpl, lfs.NewTracer(sk), cfg.seconds); err != nil {
		return err
	}
	single := len(e.clients) == 1
	setupBusy := e.d.Stats().BusyTime
	for _, c := range e.clients {
		c.spans = make([]span, 0, e.w.spanCap(cfg.seconds))
		// With two clients a call's device delta would charge it for the
		// other client's I/O, so it is not taken at all.
		c.diskAttr = single
	}
	cpuF, err := os.Create(cpuPath)
	if err != nil {
		return err
	}
	sk.reset()
	if err := pprof.StartCPUProfile(cpuF); err != nil {
		cpuF.Close()
		return err
	}
	p := measure(e, d)
	pprof.StopCPUProfile()
	if err := cpuF.Close(); err != nil {
		return err
	}
	ev := sk.snapshot()
	ctr := e.fs.Metrics().Counters
	busyEnd := e.d.Stats().BusyTime
	var spans [][]span
	for _, c := range e.clients {
		spans = append(spans, c.spans[:len(c.spans):len(c.spans)])
		c.spans = nil // the power-cut tail is not part of the phase
	}
	rec, err := powerCuts(e)
	if err == nil {
		err = finish(e)
	}
	res.Attempted += p.ops
	res.Failed += p.failed
	res.errs = append(res.errs, p.errs...)
	if err != nil {
		res.Attempted++
		res.Failed++
		res.errs = append(res.errs, err.Error())
	}

	lt := layerTable(spans, single, p.disk.BlocksRead)
	for k, v := range lt {
		res.set(k, v.value, v.unit)
	}
	st, dk := p.st, p.disk
	logTotal := st.LogBytesTotal()
	res.set("core.log.partial_writes", float64(st.PartialWrites), "count")
	res.set("core.log.blocks_per_write", ratio(float64(logTotal)/4096, float64(st.PartialWrites)), "blocks")
	res.set("core.log.meta_frac", ratio(float64(logTotal-st.LogBytesByKind[layout.KindData]-st.SummaryBytes), float64(logTotal)), "frac")
	res.set("core.log.summary_frac", ratio(float64(st.SummaryBytes), float64(logTotal)), "frac")

	plainOps := float64(plain.ops)
	lockS := rtFloat(rt1[0].Value) - rtFloat(rt0[0].Value)
	res.set("core.lock.wait_ms", lockS*1e3, "ms")
	res.set("core.lock.wait_us_per_op", ratio(lockS*1e6, plainOps), "us")

	res.set("core.admit.wait_frac", ratio(float64(st.AdmitWaits), float64(st.AdmitOps)), "frac")
	res.set("core.commit.groups", float64(st.GroupCommits), "count")
	res.set("core.commit.syncs_per_group", ratio(float64(st.GroupCommitSyncs), float64(st.GroupCommits)), "count")
	res.set("core.commit.max_syncs", float64(st.GroupCommitMaxSyncs), "count")

	res.set("core.cleaner.passes", float64(st.CleaningPasses), "count")
	res.set("core.cleaner.segments", float64(st.SegmentsCleaned), "count")
	res.set("core.cleaner.empty_frac", st.EmptyCleanedFraction(), "frac")
	res.set("core.cleaner.avg_u", st.AvgCleanedUtil(), "frac")
	res.set("core.cleaner.read_mb", float64(st.CleanerReadBytes)/1e6, "MB")
	res.set("core.cleaner.write_mb", float64(st.CleanerWriteBytes)/1e6, "MB")
	res.set("core.cleaner.live_frac", ratio(float64(st.CleanerWriteBytes), float64(st.CleanerReadBytes)), "frac")
	res.set("core.cleaner.sim_ms", ms(ev.cleanSim), "ms")

	res.set("core.checkpoint.count", float64(st.Checkpoints), "count")
	res.set("core.checkpoint.bytes", float64(ev.cpBytes), "bytes")
	if rec != nil {
		res.set("core.recovery.mount_ms", median(rec.hostMs), "ms")
		res.set("core.recovery.rollforward_writes", median(rec.rfWrites), "count")
	}

	res.set("disk.read.ops", float64(dk.ReadOps), "count")
	res.set("disk.read.blocks", float64(dk.BlocksRead), "blocks")
	res.set("disk.write.ops", float64(dk.WriteOps), "count")
	res.set("disk.write.blocks", float64(dk.BlocksWritten), "blocks")
	res.set("disk.write.blocks_per_op", ratio(float64(dk.BlocksWritten), float64(dk.WriteOps)), "blocks")
	res.set("disk.seeks", float64(dk.Seeks), "count")
	res.set("disk.seek_ms", ms(dk.SeekTime), "ms")
	res.set("disk.rotation_ms", ms(dk.RotationTime), "ms")
	res.set("disk.transfer_ms", ms(dk.TransferTime), "ms")
	res.set("disk.busy_ms", ms(dk.BusyTime), "ms")
	res.set("disk.seq_frac", ratio(float64(ev.seqIOs), float64(ev.ios)), "frac")

	shares, err := cpuShares(cpuPath)
	if err != nil {
		return err
	}
	for _, l := range []string{"disk", "core", "layout", "bufpool", "obs", "runtime"} {
		res.set(l+".cpu_frac", shares[l], "frac")
	}
	sites, err := mutexSites(mutexPath)
	if err != nil {
		return err
	}
	for _, s := range sites {
		res.notes = append(res.notes, "mutex site (beside core.lock.wait_ms): "+s)
	}

	res.set("bufpool.allocs_per_op", (rtFloat(rt1[4].Value)-rtFloat(rt0[4].Value))/plainOps, "count")
	res.set("bufpool.alloc_bytes_per_op", (rtFloat(rt1[5].Value)-rtFloat(rt0[5].Value))/plainOps, "bytes")
	res.set("runtime.gc_cycles", rtFloat(rt1[1].Value)-rtFloat(rt0[1].Value), "count")
	res.set("runtime.gc_cpu_frac", ratio(rtFloat(rt1[2].Value)-rtFloat(rt0[2].Value),
		rtFloat(rt1[3].Value)-rtFloat(rt0[3].Value)), "frac")
	res.set("runtime.sched_wait_p99_us", histP99(rt0[6].Value.Float64Histogram(), rt1[6].Value.Float64Histogram())*1e6, "us")
	res.set("obs.overhead_frac", 1-p.opsPerS()/plain.opsPerS(), "frac")

	ck := &selfChecks{single: single, setupBusy: setupBusy, busyEnd: busyEnd,
		obsWriteCost: obsWriteCost(ctr), statsWriteCost: st.WriteCost(),
		blocksWritten: dk.BlocksWritten, logCpBlocks: (logTotal + ev.cpBytes) / 4096}
	if single {
		for _, s := range spans[0] {
			if s.call != callOp {
				ck.spanSim += time.Duration(s.simNs)
			}
		}
	}
	for _, pr := range ck.problems() {
		res.errs = append(res.errs, "self-check: "+pr)
	}
	res.Correct = res.Failed == 0 && len(res.errs) == 0
	return writeSpans(filepath.Join(dir, "spans.csv.gz"), spans)
}

// selfChecks holds the quantities of the identities the per-layer table
// rests on.
type selfChecks struct {
	single                       bool
	setupBusy, spanSim, busyEnd  time.Duration
	obsWriteCost, statsWriteCost float64
	blocksWritten, logCpBlocks   int64
}

func (c *selfChecks) problems() []string {
	var out []string
	// With one client every device request of the phase happens inside
	// some call span.
	if c.single && c.setupBusy+c.spanSim != c.busyEnd {
		out = append(out, fmt.Sprintf("set-up %v + span sim %v != disk busy %v", c.setupBusy, c.spanSim, c.busyEnd))
	}
	if c.obsWriteCost != c.statsWriteCost {
		out = append(out, fmt.Sprintf("write cost from obs counters %v != Stats.WriteCost %v", c.obsWriteCost, c.statsWriteCost))
	}
	if c.blocksWritten < c.logCpBlocks {
		out = append(out, fmt.Sprintf("device wrote %d blocks < log+checkpoint %d", c.blocksWritten, c.logCpBlocks))
	}
	return out
}

// obsWriteCost recomputes the paper's write cost from the obs counters.
func obsWriteCost(c map[string]int64) float64 {
	var logged int64
	for k, v := range c {
		if strings.HasPrefix(k, obs.CtrLogBytesPrefix) && k != obs.CtrLogSummaryBytes {
			logged += v
		}
	}
	cleanW := c[obs.CtrCleanerWriteBytes]
	newData := logged - cleanW
	if newData == 0 {
		return 1.0
	}
	return float64(newData+c[obs.CtrLogSummaryBytes]+c[obs.CtrCleanerReadBytes]+cleanW) / float64(newData)
}

type layerValue struct {
	value float64
	unit  string
}

// layerTable sums the call spans by layer. A call span has no children,
// so its self time is its duration. Device time per call is a busy-time
// delta, which charges a call for other clients' I/O under concurrency,
// so sim_ms is reported as -1 (not measured) on multi-client workloads.
// There the read-cache miss fraction uses the phase's device blocks read
// (phaseRead) in place of the per-call deltas.
func layerTable(spans [][]span, single bool, phaseRead int64) map[string]layerValue {
	type agg struct{ calls, busy, sim int64 }
	by := map[string]*agg{}
	for _, l := range []string{"core.namei", "core.file.write", "core.file.read", "core.sync"} {
		by[l] = &agg{}
	}
	var rd, want int64
	for _, ss := range spans {
		for _, s := range ss {
			if s.call == callOp {
				continue
			}
			a := by[callLayer[s.call]]
			a.calls++
			a.busy += int64(s.dur)
			a.sim += s.simNs
			if s.call == callReadFile || s.call == callReadAt {
				rd += int64(s.blkRead)
				want += int64(s.blkWanted)
			}
		}
	}
	out := map[string]layerValue{}
	for l, a := range by {
		out[l+".calls"] = layerValue{float64(a.calls), "count"}
		out[l+".busy_ms"] = layerValue{float64(a.busy) / 1e6, "ms"}
		if l == "core.sync" {
			continue
		}
		sim := -1.0
		if single {
			sim = float64(a.sim) / 1e6
		}
		out[l+".sim_ms"] = layerValue{sim, "ms"}
	}
	if !single {
		rd = phaseRead
	}
	out["core.rcache.miss_frac"] = layerValue{ratio(float64(rd), float64(want)), "frac"}
	return out
}

// writeSpans saves every span as gzipped CSV.
func writeSpans(path string, spans [][]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "client,op,parent,name,start_ns,end_ns,sim_ns,blocks_read,blocks_wanted")
	for _, ss := range spans {
		for _, s := range ss {
			fmt.Fprintf(bw, "%d,%d,%d,%s,%d,%d,%d,%d,%d\n", s.client, s.op, s.parent,
				callNames[s.call], s.start, s.start+int64(s.dur), s.simNs, s.blkRead, s.blkWanted)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeProfile(name, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pprofTop runs `go tool pprof -top` on a profile and returns its rows
// as (value in ms, function name).
func pprofTop(path string, extra ...string) ([]float64, []string, error) {
	args := append([]string{"tool", "pprof", "-top", "-nodefraction=0", "-edgefraction=0", "-unit=ms"}, extra...)
	out, err := exec.Command("go", append(args, path)...).Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go tool pprof %s: %w", path, err)
	}
	var vals []float64
	var names []string
	rows := false
	for _, l := range strings.Split(string(out), "\n") {
		f := strings.Fields(l)
		if len(f) >= 5 && f[0] == "flat" {
			rows = true
			continue
		}
		if !rows || len(f) < 6 {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			continue
		}
		vals = append(vals, v)
		names = append(names, strings.Join(f[5:], " "))
	}
	return vals, names, nil
}

// pkgOf returns the import path of the package a pprof function name
// belongs to.
func pkgOf(fn string) string {
	i := strings.LastIndex(fn, "/")
	rest := fn[i+1:]
	if j := strings.Index(rest, "."); j >= 0 {
		return fn[:i+1+j]
	}
	return fn
}

// cpuShares is each layer's share of the flat CPU samples.
func cpuShares(path string) (map[string]float64, error) {
	vals, names, err := pprofTop(path, "-nodecount=1000000")
	if err != nil {
		return nil, err
	}
	var total float64
	shares := map[string]float64{}
	for i, v := range vals {
		total += v
		pkg := pkgOf(names[i])
		switch {
		case strings.HasPrefix(pkg, "repro/internal/"):
			shares[strings.TrimPrefix(pkg, "repro/internal/")] += v
		case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") ||
			!strings.Contains(names[i], "."): // assembly helpers such as memeqbody
			shares["runtime"] += v
		}
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// mutexSites lists the repository functions that waited longest on
// contended mutexes: with only repository frames shown, pprof charges
// each delay to the innermost repository caller of the lock.
func mutexSites(path string) ([]string, error) {
	vals, names, err := pprofTop(path, "-show=^repro/", "-nodecount=5")
	if err != nil {
		return nil, err
	}
	var out []string
	for i, n := range names {
		out = append(out, fmt.Sprintf("%.3fms %s", vals[i], n))
	}
	return out, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
