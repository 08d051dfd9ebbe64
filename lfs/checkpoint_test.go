package lfs_test

import (
	"fmt"
	"testing"

	"repro/lfs"
)

// TestCheckpointUsageTableNotSplit pins the checkpoint that split its
// segment usage table across two partial writes. When the inode map and
// usage blocks did not fit in the head segment's remaining room, the
// first partial write encoded some usage blocks before the second one was
// placed, so the checkpointed table missed the second write's own blocks
// and a remount reported a live-byte count off by one block (at round
// 121 of this loop). Every round checkpoints, writes a few small
// files, syncs, crashes and remounts, so checkpoints land at many head
// offsets.
func TestCheckpointUsageTableNotSplit(t *testing.T) {
	d := lfs.NewDisk(300 << 20 / 4096) // 300 MB of 4 KB blocks
	fs, err := lfs.Format(d, lfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1024)
	n := 0
	for r := 0; r < 300; r++ {
		if err := fs.Checkpoint(); err != nil {
			t.Fatalf("round %d: checkpoint: %v", r, err)
		}
		for i := 0; i < 1+r%7; i++ {
			if err := fs.WriteFile(fmt.Sprintf("/f%d", n%500), payload); err != nil {
				t.Fatalf("round %d: write: %v", r, err)
			}
			n++
		}
		if err := fs.Sync(); err != nil {
			t.Fatalf("round %d: sync: %v", r, err)
		}
		d.Crash()
		_ = fs.Unmount() // the device is gone; only the goroutines stop
		d.Reopen()
		if fs, err = lfs.Mount(d, lfs.Options{}); err != nil {
			t.Fatalf("round %d: mount: %v", r, err)
		}
		rep, err := fs.Check()
		if err != nil {
			t.Fatalf("round %d: check: %v", r, err)
		}
		if len(rep.Problems) > 0 {
			t.Fatalf("round %d: %v", r, rep.Problems)
		}
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
}
