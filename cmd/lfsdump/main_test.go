package main

import (
	"path/filepath"
	"testing"

	"repro/internal/disk"
	"repro/internal/layout"
	"repro/lfs"
)

func buildImage(t *testing.T) string {
	t.Helper()
	img := filepath.Join(t.TempDir(), "dump.img")
	d := lfs.NewDisk(4096)
	fs, err := lfs.Format(d, lfs.Options{SegmentBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := fs.WriteFile("/d/f", make([]byte, 12345)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	if err := d.Save(img); err != nil {
		t.Fatal(err)
	}
	return img
}

func TestWalkSummariesFindsTheLog(t *testing.T) {
	img := buildImage(t)
	d, err := disk.Load(img)
	if err != nil {
		t.Fatal(err)
	}
	sbBuf, err := d.Peek(0)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := layout.DecodeSuperblock(sbBuf)
	if err != nil {
		t.Fatal(err)
	}
	var writes, dataBlocks, inodeBlocks int
	for seg := int64(0); seg < int64(sb.NumSegments); seg++ {
		walkSummaries(d, sb, seg, func(off int64, s *layout.Summary) {
			writes++
			for _, e := range s.Entries {
				switch e.Kind {
				case layout.KindData:
					dataBlocks++
				case layout.KindInode:
					inodeBlocks++
				}
			}
		})
	}
	if writes == 0 {
		t.Fatal("no partial writes found in a freshly written image")
	}
	if dataBlocks == 0 || inodeBlocks == 0 {
		t.Fatalf("walk found %d data and %d inode blocks", dataBlocks, inodeBlocks)
	}
}

func TestWalkSummariesEmptySegment(t *testing.T) {
	img := buildImage(t)
	d, err := disk.Load(img)
	if err != nil {
		t.Fatal(err)
	}
	sbBuf, _ := d.Peek(0)
	sb, err := layout.DecodeSuperblock(sbBuf)
	if err != nil {
		t.Fatal(err)
	}
	// The last segment of a tiny image was never written: the walk must
	// visit nothing and must not panic.
	called := 0
	walkSummaries(d, sb, int64(sb.NumSegments)-1, func(int64, *layout.Summary) { called++ })
	if called != 0 {
		t.Fatalf("walk visited %d summaries in a clean segment", called)
	}
}

// A summary left from a segment's previous life, just past the current
// chain, carries a lower WriteSeq: the listing must end at the chain end
// rather than show the stale write as part of the segment.
func TestWalkSummariesStopsAtStaleTail(t *testing.T) {
	img := buildImage(t)
	d, err := disk.Load(img)
	if err != nil {
		t.Fatal(err)
	}
	sbBuf, _ := d.Peek(0)
	sb, err := layout.DecodeSuperblock(sbBuf)
	if err != nil {
		t.Fatal(err)
	}
	segBlocks := int64(sb.SegmentBlocks)
	for seg := int64(0); seg < int64(sb.NumSegments); seg++ {
		var writes int
		var end int64
		walkSummaries(d, sb, seg, func(off int64, s *layout.Summary) {
			writes++
			end = off + 1 + int64(len(s.Entries))
		})
		if writes == 0 || end+2 > segBlocks {
			continue
		}
		stale := &layout.Summary{WriteSeq: 1, Entries: []layout.SummaryEntry{{Kind: layout.KindData, Inum: 7}}}
		buf, err := stale.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Poke(sb.SegmentBase+seg*segBlocks+end, buf); err != nil {
			t.Fatal(err)
		}
		got := 0
		walkSummaries(d, sb, seg, func(off int64, s *layout.Summary) {
			got++
			if off >= end {
				t.Fatalf("listing shows the stale summary at offset %d (write seq %d)", off, s.WriteSeq)
			}
		})
		if got != writes {
			t.Fatalf("listing shows %d writes, want %d", got, writes)
		}
		return
	}
	t.Fatal("no segment with room after its summary chain")
}
