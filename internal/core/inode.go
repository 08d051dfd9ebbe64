package core

import (
	"fmt"
	"sync"

	"repro/internal/layout"
	"repro/internal/obs"
)

// Indirect-block roles recorded in summary entries (SummaryEntry.BlockNo
// for KindIndirect). The cleaner and recovery use them to locate the
// pointer that should reference the block.
const (
	indRoleSingle  uint32 = 0 // the inode's single indirect block
	indRoleDTop    uint32 = 1 // the double-indirect top block
	indRoleL2Base  uint32 = 2 // + i: the i-th level-2 block under DIndir
	firstIndirect         = layout.NumDirect
	firstDIndirect        = layout.NumDirect + layout.PointersPerBlock
)

// mInode is the in-memory representation of an inode: the on-disk fields
// plus lazily loaded indirect-block contents and dirtiness tracking.
//
// mu orders the lazy indirect-block loads, which can be triggered by
// concurrent readers holding only FS.mu.RLock. The ino fields and the
// dirtiness flags are mutated only under FS.mu.Lock and need no extra
// guard; readers treat them as read-only.
type mInode struct {
	mu  sync.Mutex
	ino *layout.Inode

	ind       []int64 // single-indirect contents
	indLoaded bool
	indDirty  bool

	dindTop       []int64 // double-indirect top contents
	dindTopLoaded bool
	dindTopDirty  bool

	dindL2      map[int][]int64 // loaded level-2 blocks, by index
	dindL2Dirty map[int]bool
}

func newMInode(ino *layout.Inode) *mInode {
	return &mInode{ino: ino, dindL2: make(map[int][]int64), dindL2Dirty: make(map[int]bool)}
}

func nilPointerBlock() []int64 {
	p := make([]int64, layout.PointersPerBlock)
	for i := range p {
		p[i] = layout.NilAddr
	}
	return p
}

// loadInode returns the cached in-memory inode for inum, reading it from
// the log if necessary. It may run under mu.RLock: the cache insert is
// a double-check, so concurrent readers that miss together converge on
// a single mInode.
func (fs *FS) loadInode(inum uint32) (*mInode, error) {
	fs.icacheMu.Lock()
	mi, ok := fs.icache[inum]
	fs.icacheMu.Unlock()
	if ok {
		return mi, nil
	}
	fs.imapMu.Lock()
	e := fs.imap.get(inum)
	fs.imapMu.Unlock()
	if !e.Allocated() {
		return nil, fmt.Errorf("%w: inum %d", ErrNotFound, inum)
	}
	buf, err := fs.readMetaBlock(e.Addr)
	if err != nil {
		return nil, attributeCorruption(err, inum, -1)
	}
	inodes, err := layout.DecodeInodeBlock(buf)
	if err != nil {
		// The block passed (or skipped) summary verification but fails
		// its own checksum: silent corruption of a packed inode block.
		fs.tr.Add(obs.CtrCorruptBlocks, 1)
		fs.quarantineSeg(fs.segOf(e.Addr))
		return nil, &ErrCorrupted{Ino: inum, Offset: -1, Addr: e.Addr}
	}
	if int(e.Slot) >= len(inodes) || inodes[e.Slot].Inum != inum {
		return nil, fmt.Errorf("%w: imap slot %d of block %d does not hold inum %d", ErrCorrupt, e.Slot, e.Addr, inum)
	}
	mi = newMInode(inodes[e.Slot])
	fs.icacheMu.Lock()
	if cached, ok := fs.icache[inum]; ok {
		mi = cached
	} else {
		fs.icache[inum] = mi
	}
	fs.icacheMu.Unlock()
	return mi, nil
}

// loadIndirect ensures mi.ind is populated.
func (fs *FS) loadIndirect(mi *mInode) error {
	mi.mu.Lock()
	defer mi.mu.Unlock()
	return fs.loadIndirectLocked(mi)
}

// loadIndirectLocked is loadIndirect with mi.mu already held.
func (fs *FS) loadIndirectLocked(mi *mInode) error {
	if mi.indLoaded {
		return nil
	}
	if mi.ino.Indirect == layout.NilAddr {
		mi.ind = nilPointerBlock()
	} else {
		buf, err := fs.readMetaBlock(mi.ino.Indirect)
		if err != nil {
			return err
		}
		mi.ind = layout.DecodeIndirectBlock(buf)
	}
	mi.indLoaded = true
	return nil
}

// loadDTop ensures mi.dindTop is populated.
func (fs *FS) loadDTop(mi *mInode) error {
	mi.mu.Lock()
	defer mi.mu.Unlock()
	return fs.loadDTopLocked(mi)
}

// loadDTopLocked is loadDTop with mi.mu already held.
func (fs *FS) loadDTopLocked(mi *mInode) error {
	if mi.dindTopLoaded {
		return nil
	}
	if mi.ino.DIndir == layout.NilAddr {
		mi.dindTop = nilPointerBlock()
	} else {
		buf, err := fs.readMetaBlock(mi.ino.DIndir)
		if err != nil {
			return err
		}
		mi.dindTop = layout.DecodeIndirectBlock(buf)
	}
	mi.dindTopLoaded = true
	return nil
}

// loadL2 ensures the i-th level-2 double-indirect block is populated.
func (fs *FS) loadL2(mi *mInode, i int) ([]int64, error) {
	mi.mu.Lock()
	defer mi.mu.Unlock()
	return fs.loadL2Locked(mi, i)
}

// loadL2Locked is loadL2 with mi.mu already held.
func (fs *FS) loadL2Locked(mi *mInode, i int) ([]int64, error) {
	if l2, ok := mi.dindL2[i]; ok {
		return l2, nil
	}
	if err := fs.loadDTopLocked(mi); err != nil {
		return nil, err
	}
	var l2 []int64
	if addr := mi.dindTop[i]; addr == layout.NilAddr {
		l2 = nilPointerBlock()
	} else {
		buf, err := fs.readMetaBlock(addr)
		if err != nil {
			return nil, err
		}
		l2 = layout.DecodeIndirectBlock(buf)
	}
	mi.dindL2[i] = l2
	return l2, nil
}

// blockAddr returns the disk address of file block bn, or NilAddr for a
// hole. It may run under mu.RLock; the indirect cases take mi.mu
// because they can lazily load (and therefore mutate) the in-memory
// indirect structures.
func (fs *FS) blockAddr(mi *mInode, bn uint32) (int64, error) {
	if bn < firstIndirect {
		return mi.ino.Direct[bn], nil
	}
	mi.mu.Lock()
	defer mi.mu.Unlock()
	switch {
	case bn < firstDIndirect:
		if mi.ino.Indirect == layout.NilAddr && !mi.indLoaded {
			return layout.NilAddr, nil
		}
		if err := fs.loadIndirectLocked(mi); err != nil {
			return 0, err
		}
		return mi.ind[bn-firstIndirect], nil
	case uint64(bn) < uint64(layout.MaxFileBlocks):
		if mi.ino.DIndir == layout.NilAddr && !mi.dindTopLoaded {
			return layout.NilAddr, nil
		}
		rel := int(bn - firstDIndirect)
		i := rel / layout.PointersPerBlock
		if err := fs.loadDTopLocked(mi); err != nil {
			return 0, err
		}
		if mi.dindTop[i] == layout.NilAddr {
			if _, ok := mi.dindL2[i]; !ok {
				return layout.NilAddr, nil
			}
		}
		l2, err := fs.loadL2Locked(mi, i)
		if err != nil {
			return 0, err
		}
		return l2[rel%layout.PointersPerBlock], nil
	default:
		return 0, ErrFileTooBig
	}
}

// ensureMapSlot materializes (and dirties) the indirect structures needed
// so that file block bn can later be placed without allocation. It is
// called on the write path, before the block is staged.
func (fs *FS) ensureMapSlot(mi *mInode, bn uint32) error {
	switch {
	case bn < firstIndirect:
		return nil
	case bn < firstDIndirect:
		if err := fs.loadIndirect(mi); err != nil {
			return err
		}
		mi.indDirty = true
		return nil
	case uint64(bn) < uint64(layout.MaxFileBlocks):
		rel := int(bn - firstDIndirect)
		i := rel / layout.PointersPerBlock
		if _, err := fs.loadL2(mi, i); err != nil {
			return err
		}
		mi.dindL2Dirty[i] = true
		mi.dindTopDirty = true
		return nil
	default:
		return ErrFileTooBig
	}
}

// blockSlot returns the pointer that maps file block bn to its disk
// address. The needed structures must have been materialized by
// ensureMapSlot.
func (fs *FS) blockSlot(mi *mInode, bn uint32) (*int64, error) {
	switch {
	case bn < firstIndirect:
		return &mi.ino.Direct[bn], nil
	case bn < firstDIndirect:
		if !mi.indLoaded {
			return nil, fmt.Errorf("%w: indirect block for bn %d not materialized", ErrCorrupt, bn)
		}
		return &mi.ind[bn-firstIndirect], nil
	case uint64(bn) < uint64(layout.MaxFileBlocks):
		rel := int(bn - firstDIndirect)
		i := rel / layout.PointersPerBlock
		l2, ok := mi.dindL2[i]
		if !ok {
			return nil, fmt.Errorf("%w: level-2 block %d for bn %d not materialized", ErrCorrupt, i, bn)
		}
		return &l2[rel%layout.PointersPerBlock], nil
	default:
		return nil, ErrFileTooBig
	}
}

// forEachBlockAddr calls fn for every allocated data block of the file
// with its block number and disk address. It does not visit indirect
// blocks themselves; see forEachIndirectAddr.
func (fs *FS) forEachBlockAddr(mi *mInode, fn func(bn uint32, addr int64) error) error {
	for bn, a := range mi.ino.Direct {
		if a != layout.NilAddr {
			if err := fn(uint32(bn), a); err != nil {
				return err
			}
		}
	}
	if mi.ino.Indirect != layout.NilAddr || mi.indLoaded {
		if err := fs.loadIndirect(mi); err != nil {
			return err
		}
		for j, a := range mi.ind {
			if a != layout.NilAddr {
				if err := fn(uint32(firstIndirect+j), a); err != nil {
					return err
				}
			}
		}
	}
	if mi.ino.DIndir != layout.NilAddr || mi.dindTopLoaded {
		if err := fs.loadDTop(mi); err != nil {
			return err
		}
		for i := range mi.dindTop {
			if mi.dindTop[i] == layout.NilAddr {
				if _, ok := mi.dindL2[i]; !ok {
					continue
				}
			}
			l2, err := fs.loadL2(mi, i)
			if err != nil {
				return err
			}
			for j, a := range l2 {
				if a != layout.NilAddr {
					bn := uint32(firstDIndirect + i*layout.PointersPerBlock + j)
					if err := fn(bn, a); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// forEachIndirectAddr calls fn for every on-disk indirect block of the
// file (single indirect, double-indirect top, and level-2 blocks).
func (fs *FS) forEachIndirectAddr(mi *mInode, fn func(addr int64) error) error {
	if a := mi.ino.Indirect; a != layout.NilAddr {
		if err := fn(a); err != nil {
			return err
		}
	}
	if mi.ino.DIndir != layout.NilAddr {
		if err := fn(mi.ino.DIndir); err != nil {
			return err
		}
		if err := fs.loadDTop(mi); err != nil {
			return err
		}
		for _, a := range mi.dindTop {
			if a != layout.NilAddr {
				if err := fn(a); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
