package sib

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestSealOpenRoundTrip(t *testing.T) {
	payload := []byte{1, 2, 3, 4, 5}
	data := Seal(MsgSIB3, payload)
	typ, got, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgSIB3 {
		t.Errorf("type = %v", typ)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("payload = %v", got)
	}
}

func TestSealOpenEmptyPayload(t *testing.T) {
	data := Seal(MsgSIB4, nil)
	typ, got, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgSIB4 || len(got) != 0 {
		t.Errorf("typ=%v payload=%v", typ, got)
	}
}

func TestOpenRejectsCorruption(t *testing.T) {
	data := Seal(MsgSIB1, []byte{10, 20, 30})

	short := data[:len(data)-1]
	if _, _, err := Open(short); !errors.Is(err, ErrShortMessage) {
		t.Errorf("truncated: %v", err)
	}

	bad := append([]byte(nil), data...)
	bad[0] ^= 0xFF
	if _, _, err := Open(bad); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v", err)
	}

	bad = append([]byte(nil), data...)
	bad[2] = 99
	if _, _, err := Open(bad); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: %v", err)
	}

	bad = append([]byte(nil), data...)
	bad[headerLen] ^= 0xFF // flip payload byte
	if _, _, err := Open(bad); !errors.Is(err, ErrBadChecksum) {
		t.Errorf("bit flip: %v", err)
	}

	if _, _, err := Open(nil); !errors.Is(err, ErrShortMessage) {
		t.Errorf("nil: %v", err)
	}
}

func TestSealOpenProperty(t *testing.T) {
	f := func(tb byte, payload []byte) bool {
		typ := MsgType(tb)
		got, p, err := Open(Seal(typ, payload))
		return err == nil && got == typ && bytes.Equal(p, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTLVRoundTrip(t *testing.T) {
	var w Writer
	w.PutUint(1, 42)
	w.PutInt(2, -7)
	w.PutDB(3, -11.5)
	w.PutBool(4, true)
	w.PutBool(5, false)
	w.PutBytes(6, []byte{9, 8, 7})

	r := NewReader(w.Bytes())
	var fields []Field
	err := r.ForEach(func(f Field) error {
		fields = append(fields, Field{Tag: f.Tag, Val: append([]byte(nil), f.Val...)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fields) != 6 {
		t.Fatalf("fields = %d", len(fields))
	}
	if v, _ := fields[0].Uint(); v != 42 {
		t.Errorf("uint = %d", v)
	}
	if v, _ := fields[1].Int(); v != -7 {
		t.Errorf("int = %d", v)
	}
	if v, _ := fields[2].DB(); v != -11.5 {
		t.Errorf("db = %v", v)
	}
	if v, _ := fields[3].Bool(); !v {
		t.Error("bool true")
	}
	if v, _ := fields[4].Bool(); v {
		t.Error("bool false")
	}
	if !bytes.Equal(fields[5].Val, []byte{9, 8, 7}) {
		t.Errorf("bytes = %v", fields[5].Val)
	}
}

func TestTLVDBGridRounding(t *testing.T) {
	var w Writer
	w.PutDB(1, 3.24) // off-grid, rounds to 3.0
	w.PutDB(2, 3.26) // rounds to 3.5
	r := NewReader(w.Bytes())
	f1, _, _ := r.Next()
	f2, _, _ := r.Next()
	if v, _ := f1.DB(); v != 3 {
		t.Errorf("3.24 → %v, want 3", v)
	}
	if v, _ := f2.DB(); v != 3.5 {
		t.Errorf("3.26 → %v, want 3.5", v)
	}
}

func TestTLVMalformed(t *testing.T) {
	// Length exceeding buffer.
	var w Writer
	w.PutUint(1, 5)
	buf := w.Bytes()
	buf[1] = 200 // claim a 200-byte value
	r := NewReader(buf)
	if _, _, err := r.Next(); !errors.Is(err, ErrShortMessage) {
		t.Errorf("oversize length: %v", err)
	}
	// Bad varint (0x80 continuation forever).
	r = NewReader([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80})
	if _, _, err := r.Next(); err == nil {
		t.Error("runaway varint should fail")
	}
}

func TestFieldDecodeErrors(t *testing.T) {
	// Trailing garbage after a valid varint must be rejected.
	f := Field{Tag: 1, Val: []byte{0x05, 0xFF}}
	if _, err := f.Uint(); !errors.Is(err, ErrBadField) {
		t.Errorf("trailing bytes: %v", err)
	}
	if _, err := (Field{Tag: 2, Val: nil}).Uint(); err == nil {
		t.Error("empty value should fail")
	}
	if _, err := (Field{Tag: 3, Val: []byte{0x03, 0x01}}).Int(); !errors.Is(err, ErrBadField) {
		t.Error("trailing bytes on Int should fail")
	}
}

func TestMsgTypeStrings(t *testing.T) {
	for _, tt := range []struct {
		t    MsgType
		want string
	}{
		{MsgSIB1, "SIB1"}, {MsgSIB3, "SIB3"}, {MsgSIB4, "SIB4"}, {MsgSIB5, "SIB5"},
		{MsgSIB6, "SIB6"}, {MsgSIB7, "SIB7"}, {MsgSIB8, "SIB8"},
		{MsgRRCReconfig, "RRCConnectionReconfiguration"},
		{MsgMeasReport, "MeasurementReport"},
		{MsgHandoverCmd, "HandoverCommand"},
		{MsgCellIdentity, "CellIdentity"},
	} {
		if got := tt.t.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", tt.t, got, tt.want)
		}
	}
	if MsgType(200).String() == "" {
		t.Error("unknown type should render")
	}
}
