package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/disk"
	"repro/internal/layout"
)

// Both cleaner collectors end a segment's summary chain at a WriteSeq
// regression: a stale summary past the current chain is neither read as
// a live write (the sparse collector would pay one more summary read) nor
// checksummed against data it no longer describes (the full collector
// would quarantine a healthy segment).
func TestCleanerStopsAtStaleTail(t *testing.T) {
	fs, d := newTestFS(t, 2048, testOptions())
	if err := fs.WriteFile("/f", bytes.Repeat([]byte("x"), 3*layout.BlockSize)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	seg := fs.head
	sparseRead := func() (int64, int) {
		before := fs.stats.CleanerReadBytes
		lives, err := fs.collectLiveSparse(seg)
		if err != nil {
			t.Fatal(err)
		}
		return fs.stats.CleanerReadBytes - before, len(lives)
	}
	wantBytes, wantLives := sparseRead()
	// Right after the head's current chain, a summary from the segment's
	// previous life: a lower WriteSeq and a data checksum that matches
	// nothing.
	if fs.headOff+3 > fs.segBlocks {
		t.Fatalf("head offset %d leaves no room for a stale summary", fs.headOff)
	}
	stale := &layout.Summary{WriteSeq: 1, DataChecksum: 0xbad, Entries: []layout.SummaryEntry{
		{Kind: layout.KindData, Inum: 100, Version: 1},
		{Kind: layout.KindData, Inum: 100, Version: 1, BlockNo: 1},
	}}
	buf, err := stale.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Poke(fs.segStart(seg)+fs.headOff, buf); err != nil {
		t.Fatal(err)
	}
	if gotBytes, gotLives := sparseRead(); gotBytes != wantBytes || gotLives != wantLives {
		t.Fatalf("sparse collector past a stale tail: read %d bytes, %d live; want %d, %d",
			gotBytes, gotLives, wantBytes, wantLives)
	}
	lives, err := fs.collectLiveFull(seg)
	if err != nil {
		t.Fatal(err)
	}
	if fs.isQuarantined(seg) {
		t.Fatal("full collector quarantined a healthy segment over its stale tail")
	}
	if len(lives) != wantLives {
		t.Fatalf("full collector found %d live blocks, want %d", len(lives), wantLives)
	}
}

// Format and Mount refuse a geometry whose usage table cannot be written
// in one partial write.
func TestGeometryRejectsSplitUsageTable(t *testing.T) {
	for _, c := range []struct {
		segBlocks, nsegs int64
		ok               bool
	}{
		{4, 3 * layout.SegUsagePerBlock, true},
		{4, 3*layout.SegUsagePerBlock + 1, false},
		{1024, layout.MaxSummaryEntries * layout.SegUsagePerBlock, true},
		{1024, layout.MaxSummaryEntries*layout.SegUsagePerBlock + 1, false},
	} {
		err := checkGeometry(c.segBlocks, c.nsegs)
		var ge *ErrGeometry
		if c.ok != (err == nil) || !c.ok && !errors.As(err, &ge) {
			t.Fatalf("checkGeometry(%d, %d) = %v", c.segBlocks, c.nsegs, err)
		}
	}

	// 4-block segments on a 4200-block disk: over 939 segments need four
	// usage blocks, but a partial write carries at most three.
	d := disk.MustNew(disk.DefaultGeometry(4200))
	opts := testOptions()
	opts.SegmentBlocks = 4
	var ge *ErrGeometry
	if _, err := Format(d, opts); !errors.As(err, &ge) || ge.UsageBlocks != 4 || ge.MaxBlocks != 3 {
		t.Fatalf("Format = %v, want *ErrGeometry{4, 3}", err)
	}
	sb := &layout.Superblock{Version: 1, BlockSize: layout.BlockSize, SegmentBlocks: 4, NumSegments: 1040,
		SegmentBase: 40, CheckpointAddr: [2]int64{1, 20}, CheckpointBlocks: 19, MaxInodes: 2048}
	if err := d.WriteBlock(0, sb.Encode()); err != nil {
		t.Fatal(err)
	}
	if _, err := Mount(d, opts); !errors.As(err, &ge) {
		t.Fatalf("Mount = %v, want *ErrGeometry", err)
	}
}
