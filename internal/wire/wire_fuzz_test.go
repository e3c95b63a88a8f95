package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"repro/internal/governor"
)

// FuzzReadFrame pins what a server or client does with whatever a peer
// sends: ReadFrame and then DecodeRequest and DecodeResponse end in io.EOF
// (an empty stream), an error matching governor.ErrBadWire, or success —
// never a panic. An accepted frame re-encodes to the bytes it consumed.
func FuzzReadFrame(f *testing.F) {
	frame := func(payload []byte) []byte {
		var buf bytes.Buffer
		WriteFrame(&buf, payload) // a bytes.Buffer write cannot fail
		return buf.Bytes()
	}
	req, err := EncodeRequest(&Request{ID: 1, Op: OpDeclare, Tenant: "alpha", Table: "t", Rows: 10,
		Distinct: map[string]float64{"k": 5}})
	if err != nil {
		f.Fatal(err)
	}
	resp, err := EncodeResponse(&Response{ID: 1, Err: &Error{Code: "bad_wire", Message: "m"}})
	if err != nil {
		f.Fatal(err)
	}
	valid := frame(req)
	f.Add(valid)
	f.Add(frame(resp))
	f.Add(frame(nil))
	f.Add(frame([]byte("not json")))
	f.Add([]byte{})
	f.Add(valid[:5])
	f.Add(valid[:len(valid)-3])
	var huge [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(huge[0:4], DefaultMaxFrame)
	f.Add(huge[:])
	for i := 0; i < len(valid); i += 7 {
		flipped := append([]byte(nil), valid...)
		flipped[i] ^= 1 << (i % 8)
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := ReadFrame(bytes.NewReader(data), 0)
		switch {
		case err == io.EOF:
			if len(data) != 0 {
				t.Fatalf("io.EOF after %d bytes, want it only on an empty stream", len(data))
			}
			return
		case err != nil:
			if !errors.Is(err, governor.ErrBadWire) {
				t.Fatalf("frame failure outside ErrBadWire: %v", err)
			}
			return
		}
		if !bytes.HasPrefix(data, frame(payload)) {
			t.Fatalf("accepted %d-byte payload does not re-encode to the bytes it consumed", len(payload))
		}
		if _, err := DecodeRequest(payload); err != nil && !errors.Is(err, governor.ErrBadWire) {
			t.Fatalf("request decode failure outside ErrBadWire: %v", err)
		}
		if _, err := DecodeResponse(payload); err != nil && !errors.Is(err, governor.ErrBadWire) {
			t.Fatalf("response decode failure outside ErrBadWire: %v", err)
		}
	})
}
