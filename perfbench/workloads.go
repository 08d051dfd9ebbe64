package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"

	"repro/lfs"
)

// workload is one named input set. prepare builds paths and scripts from
// the generator before any timer starts; populate runs after Format and
// is timed as set-up; op is one closed-loop client operation.
type workload struct {
	name       string
	clients    int
	diskBlocks int64
	opts       lfs.Options
	// latCap is the latency samples per class and client preallocated
	// for a 10 s phase; spans need about their sum plus one per op.
	latCap   [numClasses]int
	prepare  func(e *env)
	populate func(e *env) error
	op       func(c *client)
	tailOps  int // ops run between the checkpoint and each power cut
	// beforeCuts, if set, brings the file system to the state the
	// power-cut rounds start from.
	beforeCuts func(e *env)
}

// latCaps scales latCap to a phase of the given length.
func (w *workload) latCaps(seconds int) [numClasses]int {
	var c [numClasses]int
	for i, n := range w.latCap {
		c[i] = n * seconds / 10
	}
	return c
}

// spanCap is the spans to preallocate per client for a traced phase.
func (w *workload) spanCap(seconds int) int {
	n := 0
	for _, v := range w.latCaps(seconds) {
		n += v
	}
	return n * 3 / 2
}

// step is one pre-generated client operation.
type step struct {
	kind uint8
	file uint32
	blk  uint8
}

// env is one formatted file system and the generator state driving it.
type env struct {
	w       *workload
	g       *gen
	m       *model
	dirs    []string
	paths   []string
	sizes   []int // per file: unit size
	unitsPF int
	order   []int    // smallfile: creation order
	scripts [][]step // per client, replayed cyclically
	d       *lfs.Disk
	fs      *lfs.FS
	opts    lfs.Options
	clients []*client
	// lastSpaceAmp is smallfile's space amplification at the end of its
	// latest create pass.
	lastSpaceAmp float64
}

const scriptLen = 1 << 16

var workloads = []*workload{smallfile, hotread, churn, syncstorm}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// wrapped reports whether the device has had a disk's worth of blocks
// written. The simulated disk allocates a block's memory when it is
// first written, so a phase that starts before the log has gone round
// the disk once would pay that one-off cost in its first seconds.
func (e *env) wrapped() bool {
	return e.d.Stats().BlocksWritten >= e.w.diskBlocks
}

// mkdirs creates every directory of the env.
func (e *env) mkdirs() error {
	for _, d := range e.dirs {
		if err := e.fs.Mkdir(d); err != nil {
			return fmt.Errorf("mkdir %s: %w", d, err)
		}
	}
	return nil
}

// writeAll writes version 1 of every file, syncing every 64 files.
func (e *env) writeAll() error {
	var buf []byte
	for f, p := range e.paths {
		buf = buf[:0]
		for u := 0; u < e.unitsPF; u++ {
			buf = append(buf, e.g.content(uint32(f*e.unitsPF+u), 1, e.sizes[f])...)
		}
		if err := e.fs.WriteFile(p, buf); err != nil {
			return fmt.Errorf("populate %s: %w", p, err)
		}
		for u := 0; u < e.unitsPF; u++ {
			e.m.begin(f*e.unitsPF+u, 1)
			e.m.commit(f*e.unitsPF+u, 1)
		}
		if f%64 == 63 {
			if err := e.fs.Sync(); err != nil {
				return err
			}
		}
	}
	return e.fs.Sync()
}

// verifyAll reads every file back and compares it with the model, which
// after a returned Sync holds only acknowledged versions.
func (e *env) verifyAll() error {
	for f, p := range e.paths {
		size := e.m.fileSize(f)
		if size == 0 {
			if _, err := e.fs.Stat(p); !errors.Is(err, lfs.ErrNotFound) {
				return fmt.Errorf("%s: deleted file present after recovery (err %v)", p, err)
			}
			continue
		}
		data, err := e.fs.ReadFile(p)
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		if int64(len(data)) != size {
			return fmt.Errorf("%s: %d bytes, want %d", p, len(data), size)
		}
		us := e.sizes[f]
		for u := 0; u < e.unitsPF; u++ {
			unit := f*e.unitsPF + u
			v := e.m.committed[unit].Load()
			if !bytes.Equal(data[u*us:(u+1)*us], e.g.content(uint32(unit), v, us)) {
				return fmt.Errorf("%s: unit %d does not match acknowledged version %d", p, u, v)
			}
		}
	}
	return nil
}

// checkRead verifies the bytes a read of file f returned at byte offset
// off against the versions that could have been current during the read.
func (c *client) checkRead(f int, off int, data []byte, lo []uint32) {
	e := c.e
	us := e.sizes[f]
	for i := 0; len(data) > 0; i++ {
		u := off / us
		inUnit := off % us
		n := us - inUnit
		if n > len(data) {
			n = len(data)
		}
		unit := f*e.unitsPF + u
		hi := e.m.inflight[unit].Load()
		if !e.g.matches(unit, lo[i], hi, us, inUnit, data[:n]) {
			c.fail("%s: read at %d does not match versions %d..%d", e.paths[f], off, lo[i], hi)
			return
		}
		data, off = data[n:], off+n
	}
}

// readFile reads file f whole and verifies it.
func (c *client) readFile(f int) {
	e := c.e
	var lo [4]uint32
	for u := 0; u < e.unitsPF; u++ {
		lo[u] = e.m.committed[f*e.unitsPF+u].Load()
	}
	size := int(e.m.fileSize(f))
	m := c.begin()
	data, err := e.fs.ReadFile(e.paths[f])
	c.end(callReadFile, m, err, size)
	if err != nil {
		return
	}
	if len(data) != size {
		c.fail("%s: read %d bytes, want %d", e.paths[f], len(data), size)
		return
	}
	c.checkRead(f, 0, data, lo[:])
}

// writeFile overwrites file f (one unit) with its next version.
func (c *client) writeFile(f int) {
	e := c.e
	v := e.m.committed[f].Load() + 1
	data := e.g.content(uint32(f), v, e.sizes[f])
	e.m.begin(f, v)
	m := c.begin()
	err := e.fs.WriteFile(e.paths[f], data)
	c.end(callWriteFile, m, err, 0)
	c.payload += int64(len(data))
	if err == nil {
		e.m.commit(f, v)
	}
}

// smallfile repeats the Figure 8 cycle: create 10,000 1 KB files across
// 100 directories (Sync every 16 creates), read each back, delete all.
// The namespace, inode map and small partial writes carry the load.
var smallfile = &workload{
	name:       "smallfile",
	clients:    1,
	diskBlocks: 76800,
	latCap:     [numClasses]int{1 << 20, 1 << 19, 1 << 15},
	tailOps:    64,
	prepare: func(e *env) {
		const files, dirs = 10000, 100
		r := rand.New(rand.NewSource(int64(e.g.seed)))
		e.unitsPF = 1
		for d := 0; d < dirs; d++ {
			e.dirs = append(e.dirs, fmt.Sprintf("/s%02d", d))
		}
		for f := 0; f < files; f++ {
			e.paths = append(e.paths, fmt.Sprintf("/s%02d/f%05d", f%dirs, f))
			e.sizes = append(e.sizes, 1024)
		}
		e.order = r.Perm(files)
	},
	populate: func(e *env) error {
		if err := e.mkdirs(); err != nil {
			return err
		}
		// Warm-up: whole cycles until the log has gone round the disk.
		c := e.clients[0]
		for c.cycle == 0 || !e.wrapped() {
			for cycle := c.cycle; c.cycle == cycle; {
				e.w.op(c)
			}
		}
		return nil
	},
	// The phase stops anywhere in a cycle, and recovery after creates,
	// reads or deletes costs very different amounts; finish the cycle so
	// every power-cut round follows creates.
	beforeCuts: func(e *env) {
		c := e.clients[0]
		for c.phase != 0 || c.idx != 0 {
			e.w.op(c)
		}
	},
	op: func(c *client) {
		e := c.e
		f := e.order[c.idx]
		p := e.paths[f]
		c.opBegin()
		switch c.phase {
		case 0: // create
			v := uint32(c.cycle + 1)
			data := e.g.content(uint32(f), v, 1024)
			e.m.begin(f, v)
			m := c.begin()
			err := e.fs.Create(p)
			c.end(callCreate, m, err, 0)
			m = c.begin()
			err2 := e.fs.WriteFile(p, data)
			c.end(callWriteFile, m, err2, 0)
			c.payload += int64(len(data))
			if err == nil && err2 == nil {
				e.m.commit(f, v)
			}
			if c.idx%16 == 15 {
				c.sync()
			}
		case 1: // read back
			c.readFile(f)
		case 2: // delete
			e.m.begin(f, 0)
			m := c.begin()
			err := e.fs.Remove(p)
			c.end(callRemove, m, err, 0)
			if err == nil {
				e.m.commit(f, 0)
			}
		}
		c.opEnd()
		if c.idx++; c.idx == len(e.order) {
			if c.phase == 0 {
				e.lastSpaceAmp = e.spaceAmp()
			}
			c.idx = 0
			if c.phase = (c.phase + 1) % 3; c.phase == 0 {
				c.cycle++
			}
		}
	},
}

// hotread: two clients over a 32 MB working set under a 64 MB read cache.
// The lock, read-cache and atime layers carry the load; the overwrites
// beside the reads catch a read-side change that costs writers.
var hotread = &workload{
	name:       "hotread",
	clients:    2,
	diskBlocks: 76800,
	opts:       lfs.Options{ReadCacheBlocks: 16384},
	latCap:     [numClasses]int{1 << 17, 1 << 21, 1 << 14},
	tailOps:    4096,
	prepare: func(e *env) {
		const files, dirs = 2048, 64
		r := rand.New(rand.NewSource(int64(e.g.seed)))
		e.unitsPF = 4
		for d := 0; d < dirs; d++ {
			e.dirs = append(e.dirs, fmt.Sprintf("/h%02d", d))
		}
		for f := 0; f < files; f++ {
			e.paths = append(e.paths, fmt.Sprintf("/h%02d/f%04d", f%dirs, f))
			e.sizes = append(e.sizes, 4096)
		}
		// The paper's hot-and-cold locality (section 3.5): a random tenth
		// of the files gets 90% of the accesses. No trace at hand gives
		// the mix of the three read calls, so they get equal shares.
		perm := r.Perm(files)
		hot, cold := perm[:files/10], perm[files/10:]
		for cl := 0; cl < 2; cl++ {
			s := make([]step, scriptLen)
			for i := range s {
				f := cold[r.Intn(len(cold))]
				if r.Intn(10) < 9 {
					f = hot[r.Intn(len(hot))]
				}
				if r.Intn(100) >= 95 { // writes stay in the client's own half of the files
					s[i] = step{kind: 'w', file: uint32(f&^1 | cl), blk: uint8(r.Intn(4))}
					continue
				}
				switch r.Intn(3) {
				case 0:
					s[i] = step{kind: 'a', file: uint32(f), blk: uint8(r.Intn(4))}
				case 1:
					s[i] = step{kind: 's', file: uint32(f)}
				default:
					s[i] = step{kind: 'r', file: uint32(f)}
				}
			}
			e.scripts = append(e.scripts, s)
		}
	},
	populate: func(e *env) error {
		if err := e.mkdirs(); err != nil {
			return err
		}
		if err := e.writeAll(); err != nil {
			return err
		}
		// Run the scripts' overwrites until the log has gone round the
		// disk; the reads beside them would not move the log.
		for i := 0; !e.wrapped(); i++ {
			c := e.clients[i%len(e.clients)]
			if e.scripts[c.id][c.pos].kind != 'w' {
				c.pos = (c.pos + 1) % scriptLen
				continue
			}
			e.w.op(c)
		}
		// Warm the read cache: the whole working set fits.
		for _, p := range e.paths {
			if _, err := e.fs.ReadFile(p); err != nil {
				return err
			}
		}
		return nil
	},
	op: func(c *client) {
		e := c.e
		st := e.scripts[c.id][c.pos]
		c.pos = (c.pos + 1) % scriptLen
		f := int(st.file)
		c.opBegin()
		switch st.kind {
		case 'a':
			unit := f*4 + int(st.blk)
			lo := [1]uint32{e.m.committed[unit].Load()}
			m := c.begin()
			n, err := e.fs.ReadAt(e.paths[f], int64(st.blk)*4096, c.buf)
			c.end(callReadAt, m, err, len(c.buf))
			if err == nil {
				c.checkRead(f, int(st.blk)*4096, c.buf[:n], lo[:])
			}
		case 's':
			m := c.begin()
			fi, err := e.fs.Stat(e.paths[f])
			c.end(callStat, m, err, 0)
			if err == nil && fi.Size != 16384 {
				c.fail("%s: stat size %d", e.paths[f], fi.Size)
			}
		case 'r':
			c.readFile(f)
		case 'w':
			unit := f*4 + int(st.blk)
			v := e.m.committed[unit].Load() + 1
			data := e.g.content(uint32(unit), v, 4096)
			e.m.begin(unit, v)
			m := c.begin()
			_, err := e.fs.WriteAt(e.paths[f], int64(st.blk)*4096, data)
			c.end(callWriteAt, m, err, 0)
			c.payload += 4096
			if err == nil {
				e.m.commit(unit, v)
			}
			if c.writes++; c.writes%8 == 0 {
				c.sync()
			}
		}
		c.opEnd()
	},
}

// churn: a 128 MB disk 75% full, hot/cold overwrites and uniform reads,
// the one workload where the cleaner, checkpoints, recovery and the
// uncached read path dominate.
var churn = &workload{
	name:       "churn",
	clients:    1,
	diskBlocks: 32768,
	opts:       lfs.Options{ReadCacheBlocks: 512, CheckpointEveryBytes: 1 << 20},
	latCap:     [numClasses]int{1 << 18, 1 << 17, 1 << 14},
	tailOps:    24,
	prepare: func(e *env) {
		const dirs = 64
		r := rand.New(rand.NewSource(int64(e.g.seed)))
		e.unitsPF = 1
		for d := 0; d < dirs; d++ {
			e.dirs = append(e.dirs, fmt.Sprintf("/c%02d", d))
		}
		// Fill ~75% of the segment area with 1-40 KB files, counting
		// whole blocks.
		target := int64(float64(e.w.diskBlocks*4096) * 0.75)
		var used int64
		for f := 0; used < target; f++ {
			size := 1024 + r.Intn(40*1024-1024+1)
			used += int64((size + 4095) / 4096 * 4096)
			e.paths = append(e.paths, fmt.Sprintf("/c%02d/f%05d", f%dirs, f))
			e.sizes = append(e.sizes, size)
		}
		perm := r.Perm(len(e.paths))
		hot := perm[:len(perm)/10]
		cold := perm[len(perm)/10:]
		s := make([]step, scriptLen)
		for i := range s {
			switch k := r.Intn(100); {
			case k < 30:
				s[i] = step{kind: 'r', file: uint32(r.Intn(len(e.paths)))}
			case k < 30+63: // 90% of the writes go to the hot tenth
				s[i] = step{kind: 'w', file: uint32(hot[r.Intn(len(hot))])}
			default:
				s[i] = step{kind: 'w', file: uint32(cold[r.Intn(len(cold))])}
			}
		}
		e.scripts = [][]step{s}
	},
	populate: func(e *env) error {
		if err := e.mkdirs(); err != nil {
			return err
		}
		if err := e.writeAll(); err != nil {
			return err
		}
		// Warm-up: overwrite until the cleaner has run, so the phase
		// starts in the cleaning regime.
		c := e.clients[0]
		for e.fs.Stats().SegmentsCleaned < 64 {
			e.w.op(c)
		}
		return nil
	},
	op: func(c *client) {
		e := c.e
		st := e.scripts[0][c.pos]
		c.pos = (c.pos + 1) % scriptLen
		c.opBegin()
		if st.kind == 'r' {
			c.readFile(int(st.file))
		} else {
			c.writeFile(int(st.file))
			if c.writes++; c.writes%16 == 0 {
				c.sync()
			}
		}
		c.opEnd()
	},
}

// syncstorm: two clients, each a 4 KB WriteFile plus Sync per op, the
// one workload with concurrent syncers (admission gate, group commit).
var syncstorm = &workload{
	name:       "syncstorm",
	clients:    2,
	diskBlocks: 76800,
	latCap:     [numClasses]int{1 << 18, 1 << 16, 1 << 18},
	tailOps:    128,
	prepare: func(e *env) {
		const perClient = 256
		e.unitsPF = 1
		for cl := 0; cl < 2; cl++ {
			e.dirs = append(e.dirs, fmt.Sprintf("/y%d", cl))
			for i := 0; i < perClient; i++ {
				e.paths = append(e.paths, fmt.Sprintf("/y%d/f%03d", cl, i))
				e.sizes = append(e.sizes, 4096)
			}
		}
	},
	populate: func(e *env) error {
		if err := e.mkdirs(); err != nil {
			return err
		}
		if err := e.writeAll(); err != nil {
			return err
		}
		for !e.wrapped() {
			runFor(e, 0, 2048)
		}
		return nil
	},
	op: func(c *client) {
		f := c.id*256 + c.pos%256
		c.pos++
		c.opBegin()
		c.writeFile(f)
		c.sync()
		// Every eighth op reads back the file it just synced.
		if c.pos%8 == 0 {
			c.readFile(f)
		}
		c.opEnd()
	},
}
