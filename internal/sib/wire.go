// Package sib implements the over-the-air signaling messages that carry
// handoff configurations — System Information Blocks 1/3/4/5/6/7/8,
// RRCConnectionReconfiguration (measConfig), MeasurementReport and the
// handover command — together with a compact binary wire format and the
// chipset diag-log framing the MMLab crawler parses.
//
// The real messages are ASN.1 PER; we use a tag-length-value encoding with
// varints and a CRC32-protected envelope. What matters for the paper's
// pipeline is preserved: configurations travel as opaque bytes the
// device-side crawler must genuinely decode, unknown fields are skippable
// (forward compatibility), and corruption is detected, not propagated.
package sib

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"mmlab/internal/units"
)

// Envelope constants.
const (
	magic   uint16 = 0xC311
	version byte   = 1

	headerLen  = 2 + 1 + 1 + 4 // magic, version, type, payload length
	trailerLen = 4             // CRC32 of payload
)

// MsgType identifies a signaling message kind on the wire.
type MsgType byte

// Message type codes.
const (
	MsgSIB1         MsgType = 1
	MsgSIB3         MsgType = 3
	MsgSIB4         MsgType = 4
	MsgSIB5         MsgType = 5
	MsgSIB6         MsgType = 6
	MsgSIB7         MsgType = 7
	MsgSIB8         MsgType = 8
	MsgRRCReconfig  MsgType = 16
	MsgMeasReport   MsgType = 17
	MsgHandoverCmd  MsgType = 18
	MsgCellIdentity MsgType = 19 // serving-cell identity stamp in diag logs
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case MsgSIB1:
		return "SIB1"
	case MsgSIB3:
		return "SIB3"
	case MsgSIB4:
		return "SIB4"
	case MsgSIB5:
		return "SIB5"
	case MsgSIB6:
		return "SIB6"
	case MsgSIB7:
		return "SIB7"
	case MsgSIB8:
		return "SIB8"
	case MsgRRCReconfig:
		return "RRCConnectionReconfiguration"
	case MsgMeasReport:
		return "MeasurementReport"
	case MsgHandoverCmd:
		return "HandoverCommand"
	case MsgCellIdentity:
		return "CellIdentity"
	default:
		return fmt.Sprintf("MsgType(%d)", byte(t))
	}
}

// Wire format errors.
var (
	ErrShortMessage = errors.New("sib: message truncated")
	ErrBadMagic     = errors.New("sib: bad magic")
	ErrBadVersion   = errors.New("sib: unsupported version")
	ErrBadChecksum  = errors.New("sib: checksum mismatch")
	ErrBadVarint    = errors.New("sib: malformed varint")
	ErrBadField     = errors.New("sib: malformed field")
)

// Seal wraps a payload in the envelope: header, payload, CRC32.
func Seal(t MsgType, payload []byte) []byte {
	buf := make([]byte, 0, headerLen+len(payload)+trailerLen)
	buf = binary.LittleEndian.AppendUint16(buf, magic)
	buf = append(buf, version, byte(t))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return buf
}

// Open validates an envelope and returns its type and payload. The payload
// aliases data; callers must not retain it past data's lifetime.
func Open(data []byte) (MsgType, []byte, error) {
	if len(data) < headerLen+trailerLen {
		return 0, nil, ErrShortMessage
	}
	if binary.LittleEndian.Uint16(data) != magic {
		return 0, nil, ErrBadMagic
	}
	if data[2] != version {
		return 0, nil, fmt.Errorf("%w: %d", ErrBadVersion, data[2])
	}
	t := MsgType(data[3])
	n := binary.LittleEndian.Uint32(data[4:])
	if uint64(len(data)) != uint64(headerLen)+uint64(n)+trailerLen {
		return 0, nil, ErrShortMessage
	}
	payload := data[headerLen : headerLen+int(n)]
	want := binary.LittleEndian.Uint32(data[headerLen+int(n):])
	if crc32.ChecksumIEEE(payload) != want {
		return 0, nil, ErrBadChecksum
	}
	return t, payload, nil
}

// EnvelopeSize returns the total encoded size for a payload length, used by
// stream readers to frame messages.
func EnvelopeSize(payloadLen int) int { return headerLen + payloadLen + trailerLen }

// --- TLV primitives ---

// Writer accumulates TLV fields into a payload.
type Writer struct {
	buf []byte
}

// Bytes returns the accumulated payload.
func (w *Writer) Bytes() []byte { return w.buf }

// PutUint writes an unsigned field.
func (w *Writer) PutUint(tag uint64, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	w.putField(tag, tmp[:n])
}

// PutInt writes a signed field (zigzag).
func (w *Writer) PutInt(tag uint64, v int64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	w.putField(tag, tmp[:n])
}

// PutDB writes a dB value on the half-dB grid (stored as value*2, zigzag).
// Values off the grid are rounded to it.
func (w *Writer) PutDB(tag uint64, db float64) {
	w.PutInt(tag, int64(math.Round(db*2)))
}

// PutDBRel writes a relative dB quantity on the half-dB grid; see PutDB.
func (w *Writer) PutDBRel(tag uint64, db units.Db) { w.PutDB(tag, db.V()) }

// PutDBAbs writes an absolute dBm level on the half-dB grid; see PutDB.
func (w *Writer) PutDBAbs(tag uint64, dbm units.Dbm) { w.PutDB(tag, dbm.V()) }

// PutBool writes a boolean field.
func (w *Writer) PutBool(tag uint64, v bool) {
	if v {
		w.PutUint(tag, 1)
	} else {
		w.PutUint(tag, 0)
	}
}

// PutBytes writes a nested blob (e.g. a sub-structure's own TLV payload).
func (w *Writer) PutBytes(tag uint64, b []byte) { w.putField(tag, b) }

func (w *Writer) putField(tag uint64, val []byte) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], tag)
	w.buf = append(w.buf, tmp[:n]...)
	n = binary.PutUvarint(tmp[:], uint64(len(val)))
	w.buf = append(w.buf, tmp[:n]...)
	w.buf = append(w.buf, val...)
}

// Field is one decoded TLV field.
type Field struct {
	Tag uint64
	Val []byte
}

// Uint decodes the field as unsigned varint.
func (f Field) Uint() (uint64, error) {
	v, n := binary.Uvarint(f.Val)
	if n <= 0 || n != len(f.Val) {
		return 0, fmt.Errorf("%w: tag %d", ErrBadField, f.Tag)
	}
	return v, nil
}

// Int decodes the field as signed varint.
func (f Field) Int() (int64, error) {
	v, n := binary.Varint(f.Val)
	if n <= 0 || n != len(f.Val) {
		return 0, fmt.Errorf("%w: tag %d", ErrBadField, f.Tag)
	}
	return v, nil
}

// DB decodes a half-dB-grid value.
func (f Field) DB() (float64, error) {
	v, err := f.Int()
	if err != nil {
		return 0, err
	}
	return float64(v) / 2, nil
}

// DBRel decodes a half-dB-grid value as a relative dB quantity.
func (f Field) DBRel() (units.Db, error) {
	v, err := f.DB()
	return units.Db(v), err
}

// DBAbs decodes a half-dB-grid value as an absolute dBm level.
func (f Field) DBAbs() (units.Dbm, error) {
	v, err := f.DB()
	return units.Dbm(v), err
}

// Bool decodes the field as boolean.
func (f Field) Bool() (bool, error) {
	v, err := f.Uint()
	if err != nil {
		return false, err
	}
	return v != 0, nil
}

// Reader iterates TLV fields of a payload.
type Reader struct {
	buf []byte
	off int
}

// NewReader wraps a payload.
func NewReader(payload []byte) *Reader { return &Reader{buf: payload} }

// Next returns the next field; ok=false at clean end of payload. A
// malformed payload returns an error.
func (r *Reader) Next() (Field, bool, error) {
	if r.off >= len(r.buf) {
		return Field{}, false, nil
	}
	tag, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return Field{}, false, ErrBadVarint
	}
	r.off += n
	ln, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return Field{}, false, ErrBadVarint
	}
	r.off += n
	if uint64(len(r.buf)-r.off) < ln {
		return Field{}, false, ErrShortMessage
	}
	val := r.buf[r.off : r.off+int(ln)]
	r.off += int(ln)
	return Field{Tag: tag, Val: val}, true, nil
}

// ForEach decodes every field, calling fn; unknown tags should be ignored
// by fn returning nil (that is the forward-compatibility contract).
func (r *Reader) ForEach(fn func(Field) error) error {
	for {
		f, ok, err := r.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if err := fn(f); err != nil {
			return err
		}
	}
}
