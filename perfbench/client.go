package main

import (
	"fmt"
	"math"
	"time"

	"repro/lfs"
)

// class groups calls for the end-to-end latency percentiles.
type class int

const (
	clsWrite class = iota // mutating calls
	clsRead               // ReadFile, ReadAt, Stat
	clsSync               // Sync
	numClasses
)

// callID names one public core.FS method the generator calls.
type callID uint8

const (
	callCreate callID = iota
	callRemove
	callWriteFile
	callWriteAt
	callReadFile
	callReadAt
	callStat
	callSync
	numCalls
	callOp = numCalls // a client op: the root span over its calls
)

var callNames = [...]string{"Create", "Remove", "WriteFile", "WriteAt",
	"ReadFile", "ReadAt", "Stat", "Sync", "op"}

var callClass = [numCalls]class{clsWrite, clsWrite, clsWrite, clsWrite,
	clsRead, clsRead, clsRead, clsSync}

// callLayer maps each call to the core module that does its work.
var callLayer = [numCalls]string{"core.namei", "core.namei",
	"core.file.write", "core.file.write", "core.file.read", "core.file.read",
	"core.namei", "core.sync"}

// span is one traced interval: a client op (parent -1) or one FS call
// inside it (parent is the index of the op's span). Times are host
// nanoseconds since the phase began.
type span struct {
	start     int64
	simNs     int64 // device busy-time delta
	op        uint32
	parent    int32
	dur       uint32 // ns
	blkRead   uint32 // device blocks read during the call
	blkWanted uint16 // blocks the caller asked to read
	call      callID
	client    uint8
}

// client is one closed-loop generator goroutine. It owns its latency
// slices and spans, so recording takes no shared lock.
type client struct {
	id  int
	e   *env
	buf []byte // ReadAt destination

	lat     [numClasses][]uint32 // host latency, ns
	ops     int64
	failed  int64
	payload int64 // client payload bytes written
	errs    []string

	marks []cut // where each window of the phase began, and the end

	// Workload cursors.
	pos, idx, phase, cycle, writes int

	// Tracing (nil spans: untraced).
	spans    []span
	diskAttr bool // record device deltas per call
	base     time.Time
	opSpan   int
	opBad    bool
}

func newClient(e *env, id int, latCap [numClasses]int) *client {
	c := &client{id: id, e: e, buf: make([]byte, 4096)}
	for i := range c.lat {
		c.lat[i] = make([]uint32, 0, latCap[i])
	}
	return c
}

// reset clears what a warm-up recorded, keeping the workload cursors.
func (c *client) reset() {
	for i := range c.lat {
		c.lat[i] = c.lat[i][:0]
	}
	c.ops, c.failed, c.payload, c.errs = 0, 0, 0, nil
	c.spans = c.spans[:0]
}

// cut is a client's op count and latency sample counts at a window edge.
type cut struct {
	ops int64
	lat [numClasses]int
}

func (c *client) mark() cut {
	m := cut{ops: c.ops}
	for i := range c.lat {
		m.lat[i] = len(c.lat[i])
	}
	return m
}

func (c *client) opBegin() {
	c.ops++
	c.opBad = false
	if c.spans != nil {
		c.opSpan = len(c.spans)
		c.spans = append(c.spans, span{op: uint32(c.ops), parent: -1, call: callOp,
			client: uint8(c.id), start: int64(time.Since(c.base))})
	}
}

func (c *client) opEnd() {
	if c.opBad {
		c.failed++
	}
	if c.spans != nil {
		s := &c.spans[c.opSpan]
		s.dur = dur32(time.Since(c.base) - time.Duration(s.start))
	}
}

// fail marks the current op failed and keeps the first few reasons.
func (c *client) fail(format string, args ...interface{}) {
	c.opBad = true
	if len(c.errs) < 4 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// mark is the state captured just before an FS call.
type mark struct {
	t    time.Time
	disk lfs.DiskStats
}

func (c *client) begin() mark {
	var m mark
	if c.diskAttr {
		m.disk = c.e.d.Stats()
	}
	m.t = time.Now()
	return m
}

// end records the latency of call and, when tracing, its span.
func (c *client) end(call callID, m mark, err error, wanted int) {
	d := dur32(time.Since(m.t))
	cls := callClass[call]
	c.lat[cls] = append(c.lat[cls], d)
	if err != nil {
		c.fail("%s: %v", callNames[call], err)
	}
	if c.spans == nil {
		return
	}
	s := span{op: uint32(c.ops), parent: int32(c.opSpan), call: call, client: uint8(c.id),
		start: int64(m.t.Sub(c.base)), dur: d, blkWanted: uint16((wanted + 4095) / 4096)}
	if c.diskAttr {
		ds := c.e.d.Stats()
		s.simNs = int64(ds.BusyTime - m.disk.BusyTime)
		s.blkRead = uint32(ds.BlocksRead - m.disk.BlocksRead)
	}
	c.spans = append(c.spans, s)
}

// dur32 clamps a duration to the uint32 nanoseconds samples are kept in.
func dur32(d time.Duration) uint32 {
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(d)
}

// sync calls Sync as part of the current op.
func (c *client) sync() {
	m := c.begin()
	err := c.e.fs.Sync()
	c.end(callSync, m, err, 0)
}
