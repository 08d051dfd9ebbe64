package layout

import (
	"errors"
	"testing"
)

// chainSeg builds a segBlocks-block segment holding one summary per
// entry of counts, with write sequence numbers seqs, each followed by
// counts[i] zero data blocks. Unwritten blocks stay zero.
func chainSeg(t *testing.T, segBlocks int64, seqs []uint64, counts []int) [][]byte {
	t.Helper()
	seg := make([][]byte, segBlocks)
	for i := range seg {
		seg[i] = make([]byte, BlockSize)
	}
	off := int64(0)
	for i, seq := range seqs {
		s := &Summary{WriteSeq: seq, Entries: make([]SummaryEntry, counts[i])}
		buf, err := s.Encode()
		if err != nil {
			t.Fatal(err)
		}
		seg[off] = buf
		off += 1 + int64(counts[i])
	}
	return seg
}

func TestWalkSegmentStops(t *testing.T) {
	errRead := errors.New("read failed")
	errFn := errors.New("callback failed")
	cases := []struct {
		name    string
		seqs    []uint64
		counts  []int
		start   int64
		rule    SeqRule
		readErr int64 // offset whose read fails; -1 for none
		fnErr   error // returned by the callback on its second summary
		want    WalkStop
		wantOff int64
		wantErr error
		visits  int
	}{
		{"end of segment", []uint64{1, 2}, []int{3, 3}, 0, SeqIncreasing(), -1, nil, WalkEnd, 8, nil, 2},
		{"start past the last summary slot", nil, nil, 7, SeqIncreasing(), -1, nil, WalkEnd, 7, nil, 0},
		{"unwritten block", []uint64{1}, []int{2}, 0, SeqIncreasing(), -1, nil, WalkBadSummary, 3, nil, 1},
		{"stale tail", []uint64{5, 6, 2}, []int{1, 1, 1}, 0, SeqIncreasing(), -1, nil, WalkSeqBreak, 4, nil, 2},
		{"equal seq is stale", []uint64{5, 5}, []int{1, 1}, 0, SeqIncreasing(), -1, nil, WalkSeqBreak, 2, nil, 1},
		{"exact sequence", []uint64{4, 5, 7}, []int{1, 1, 1}, 0, SeqExact(4, 100), -1, nil, WalkSeqBreak, 4, nil, 2},
		{"exact first mismatch", []uint64{4}, []int{1}, 0, SeqExact(3, 100), -1, nil, WalkSeqBreak, 0, nil, 0},
		{"exact limit", []uint64{4, 5, 6}, []int{1, 1, 1}, 0, SeqExact(4, 6), -1, nil, WalkSeqBreak, 4, nil, 2},
		{"no entries", []uint64{1, 2}, []int{2, 0}, 0, SeqIncreasing(), -1, nil, WalkOverflow, 3, nil, 1},
		{"entries escape the segment", []uint64{1, 2}, []int{2, 5}, 0, SeqIncreasing(), -1, nil, WalkOverflow, 3, nil, 1},
		{"read error", []uint64{1, 2}, []int{2, 2}, 0, SeqIncreasing(), 3, nil, WalkReadError, 3, errRead, 1},
		{"stop walk", []uint64{1, 2, 3}, []int{1, 1, 1}, 0, SeqIncreasing(), -1, StopWalk, WalkHalted, 2, nil, 2},
		{"callback error", []uint64{1, 2, 3}, []int{1, 1, 1}, 0, SeqIncreasing(), -1, errFn, WalkHalted, 2, errFn, 2},
	}
	const segBlocks = 8
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			seg := chainSeg(t, segBlocks, c.seqs, c.counts)
			read := func(off int64) ([]byte, error) {
				if off == c.readErr {
					return nil, errRead
				}
				return seg[off], nil
			}
			visits := 0
			off, stop, err := WalkSegment(segBlocks, c.start, read, &Summary{}, c.rule, func(off int64, s *Summary) error {
				visits++
				if visits == 2 && c.fnErr != nil {
					return c.fnErr
				}
				return nil
			})
			if stop != c.want || off != c.wantOff || err != c.wantErr || visits != c.visits {
				t.Fatalf("got (%d, %v, %v) after %d summaries, want (%d, %v, %v) after %d",
					off, stop, err, visits, c.wantOff, c.want, c.wantErr, c.visits)
			}
		})
	}
}

// A walk over a warm scratch summary allocates nothing: the cleaner and
// the verify-on-read harvest walk chains on hot paths.
func TestWalkSegmentWarmScratchAllocs(t *testing.T) {
	const segBlocks = 2 * (MaxSummaryEntries + 1)
	seg := chainSeg(t, segBlocks, []uint64{1, 2}, []int{MaxSummaryEntries, MaxSummaryEntries})
	scratch := &Summary{}
	var blocks int
	walk := func() {
		read := func(off int64) ([]byte, error) { return seg[off], nil }
		_, stop, _ := WalkSegment(segBlocks, 0, read, scratch, SeqIncreasing(), func(_ int64, s *Summary) error {
			blocks += len(s.Entries)
			return nil
		})
		if stop != WalkEnd {
			t.Fatalf("stop = %v, want end", stop)
		}
	}
	walk() // warm: grows the scratch to MaxSummaryEntries once
	if avg := testing.AllocsPerRun(200, walk); avg != 0 {
		t.Fatalf("warm summary-chain walk allocates %.2f times per op, want 0", avg)
	}
}
