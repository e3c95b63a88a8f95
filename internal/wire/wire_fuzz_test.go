package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
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
	f.Add(frame([]byte(`{"id":1,"op":"ping"}`))) // a JSON-payload peer
	f.Add([]byte{})
	f.Add(valid[:5])
	f.Add(valid[:len(valid)-3])
	var huge [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(huge[0:4], DefaultMaxFrame)
	f.Add(huge[:])
	for i := 0; i < len(valid); i += 3 {
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

// FuzzCodec pins the payload codec on its own: whatever bytes a decoder
// accepts re-encode to bytes that decode to an equal value and re-encode
// to the same bytes, and every refusal matches governor.ErrBadWire —
// never a panic.
func FuzzCodec(f *testing.F) {
	for _, req := range codecRequests {
		b, err := EncodeRequest(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, resp := range codecResponses {
		b, err := EncodeResponse(resp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	f.Add([]byte{})
	f.Add([]byte(`{"id":1,"op":"ping"}`))
	f.Add([]byte{codecVersion, 0x08, 0x80})
	f.Add([]byte{codecVersion, respResult<<3 | kindBytes, 4, resRows<<3 | kindBytes, 2, rowCell<<3 | kindBytes, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := DecodeRequest(data); err != nil {
			if !errors.Is(err, governor.ErrBadWire) {
				t.Fatalf("request decode failure outside ErrBadWire: %v", err)
			}
		} else {
			b1, err := EncodeRequest(req)
			if err != nil {
				t.Fatalf("an accepted request does not re-encode: %v", err)
			}
			again, err := DecodeRequest(b1)
			if err != nil {
				t.Fatalf("a re-encoded request does not decode: %v", err)
			}
			if b2, _ := EncodeRequest(again); !bytes.Equal(b1, b2) || !sameValue(req, again) {
				t.Fatalf("request round trip changed the value: %+v, then %+v", req, again)
			}
		}
		if resp, err := DecodeResponse(data); err != nil {
			if !errors.Is(err, governor.ErrBadWire) {
				t.Fatalf("response decode failure outside ErrBadWire: %v", err)
			}
		} else {
			b1, err := EncodeResponse(resp)
			if err != nil {
				t.Fatalf("an accepted response does not re-encode: %v", err)
			}
			again, err := DecodeResponse(b1)
			if err != nil {
				t.Fatalf("a re-encoded response does not decode: %v", err)
			}
			if b2, _ := EncodeResponse(again); !bytes.Equal(b1, b2) || !sameValue(resp, again) {
				t.Fatalf("response round trip changed the value: %+v, then %+v", resp, again)
			}
		}
	})
}

// sameValue is reflect.DeepEqual after replacing every NaN the two
// decoded values carry by one sentinel: the codec carries a float's bits,
// and DeepEqual holds no NaN equal to itself.
func sameValue[T Request | Response](a, b *T) bool {
	for _, v := range []any{a, b} {
		noNaN := func(f *float64) {
			if math.IsNaN(*f) {
				*f = -1.25e-300
			}
		}
		switch v := v.(type) {
		case *Request:
			noNaN(&v.Rows)
			for k, d := range v.Distinct {
				noNaN(&d)
				v.Distinct[k] = d
			}
		case *Response:
			if v.Estimate != nil {
				noNaN(&v.Estimate.FinalSize)
			}
		}
	}
	return reflect.DeepEqual(a, b)
}
