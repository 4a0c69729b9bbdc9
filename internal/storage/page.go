package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// On-disk layout of the history tier (see history.go for the protocol).
// The history file is an array of fixed-size pages addressed by a
// uint32 page id (file offset = id × pageSize). Pages 0 and 1 are the
// ping-pong meta slots; every other page is either a slotted data page
// holding element records or a B+tree node (btree.go).
const (
	pageSize = 8192

	pageKindData     = byte(1)
	pageKindLeaf     = byte(2)
	pageKindInterior = byte(3)

	// dataHdrLen is the slotted-page header: kind(1) count(2) free(2)
	// pad(3). Record bytes grow up from dataHdrLen; the slot directory
	// (one uint16 offset per record) grows down from pageSize.
	dataHdrLen = 8
)

// pageID addresses one fixed-size page in the history file. 0 and 1
// are the meta slots, so 0 doubles as "no page" in pointers.
type pageID = uint32

const noPage pageID = 0

// --- slotted data page ---------------------------------------------------

func dataPageInit(p []byte) {
	for i := range p[:dataHdrLen] {
		p[i] = 0
	}
	p[0] = pageKindData
	binary.BigEndian.PutUint16(p[3:5], dataHdrLen)
}

// dataPageAppend adds one record to the page, returning its slot index,
// or false when the record (plus its slot entry) does not fit.
func dataPageAppend(p []byte, rec []byte) (uint16, bool) {
	count := int(binary.BigEndian.Uint16(p[1:3]))
	free := int(binary.BigEndian.Uint16(p[3:5]))
	slotTop := pageSize - 2*(count+1)
	if free+len(rec) > slotTop {
		return 0, false
	}
	copy(p[free:], rec)
	binary.BigEndian.PutUint16(p[slotTop:], uint16(free))
	binary.BigEndian.PutUint16(p[1:3], uint16(count+1))
	binary.BigEndian.PutUint16(p[3:5], uint16(free+len(rec)))
	return uint16(count), true
}

// dataPageSlot returns the record bytes starting at the given slot; the
// record encoding is self-delimiting, so the slice runs to the end of
// the record area and the decoder reports how much it consumed.
func dataPageSlot(p []byte, slot uint16) ([]byte, error) {
	count := int(binary.BigEndian.Uint16(p[1:3]))
	if p[0] != pageKindData || int(slot) >= count {
		return nil, fmt.Errorf("storage: bad history slot %d (page has %d)", slot, count)
	}
	off := int(binary.BigEndian.Uint16(p[pageSize-2*(int(slot)+1):]))
	free := int(binary.BigEndian.Uint16(p[3:5]))
	if off < dataHdrLen || off >= free {
		return nil, fmt.Errorf("storage: corrupt history slot offset %d", off)
	}
	return p[off:free], nil
}

// --- meta page -----------------------------------------------------------

// histMeta is the durable root of the history file, written to slot
// gen%2 so a torn meta write can never destroy the previous good
// generation. The checksum covers everything before it.
//
//	magic(8) gen(8) root(4) npages(4) lastSeq(8) count(8)
//	freeLen(4) free[..](4 each) crc32(4)
type histMeta struct {
	gen     uint64
	root    pageID
	npages  uint32
	lastSeq uint64
	count   uint64
	free    []pageID
}

var histMagic = []byte("GSNHIST1")

// maxMetaFree is how many free page ids fit in one meta page. Overflow
// is handled by leaking the excess (counted, see history.leakedPages):
// correctness never depends on reuse.
const maxMetaFree = (pageSize - len("GSNHIST1") - 8 - 4 - 4 - 8 - 8 - 4 - 4) / 4

func encodeMeta(p []byte, m histMeta) {
	for i := range p {
		p[i] = 0
	}
	off := copy(p, histMagic)
	binary.BigEndian.PutUint64(p[off:], m.gen)
	off += 8
	binary.BigEndian.PutUint32(p[off:], m.root)
	off += 4
	binary.BigEndian.PutUint32(p[off:], m.npages)
	off += 4
	binary.BigEndian.PutUint64(p[off:], m.lastSeq)
	off += 8
	binary.BigEndian.PutUint64(p[off:], m.count)
	off += 8
	binary.BigEndian.PutUint32(p[off:], uint32(len(m.free)))
	off += 4
	for _, pid := range m.free {
		binary.BigEndian.PutUint32(p[off:], pid)
		off += 4
	}
	binary.BigEndian.PutUint32(p[off:], crc32.ChecksumIEEE(p[:off]))
}

// decodeMeta validates one meta slot; ok is false for a slot that was
// never written or was torn mid-write.
func decodeMeta(p []byte) (histMeta, bool) {
	var m histMeta
	if len(p) < pageSize || string(p[:len(histMagic)]) != string(histMagic) {
		return m, false
	}
	off := len(histMagic)
	m.gen = binary.BigEndian.Uint64(p[off:])
	off += 8
	m.root = binary.BigEndian.Uint32(p[off:])
	off += 4
	m.npages = binary.BigEndian.Uint32(p[off:])
	off += 4
	m.lastSeq = binary.BigEndian.Uint64(p[off:])
	off += 8
	m.count = binary.BigEndian.Uint64(p[off:])
	off += 8
	n := binary.BigEndian.Uint32(p[off:])
	off += 4
	if n > uint32(maxMetaFree) {
		return m, false
	}
	for i := uint32(0); i < n; i++ {
		m.free = append(m.free, binary.BigEndian.Uint32(p[off:]))
		off += 4
	}
	sum := binary.BigEndian.Uint32(p[off:])
	return m, sum == crc32.ChecksumIEEE(p[:off])
}
