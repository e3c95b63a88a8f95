package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/counters"
	"repro/internal/governor"
)

// codecRequests sets every Request field at least once, over every op.
var codecRequests = map[string]*Request{
	"ping":     {ID: 1, Op: OpPing, Tenant: "acme"},
	"estimate": {ID: 2, Op: OpEstimate, Tenant: "acme", SQL: "SELECT COUNT(*) FROM S, M WHERE S.s = M.m", Algo: "sm", DeadlineMillis: 250},
	"query":    {ID: 3, Op: OpQuery, Tenant: "acme", SQL: "SELECT S.s FROM S", DeadlineMillis: 1 << 40},
	"explain":  {ID: 4, Op: OpExplain, Tenant: "acme", SQL: "SELECT COUNT(*) FROM S", Algo: "ELS"},
	"declare": {ID: 7, Op: OpDeclare, Tenant: "acme", Table: "T", Rows: 1000, DeadlineMillis: 250,
		Distinct: map[string]float64{"a": 10, "b": 0, "": 3.5, "ü": math.Inf(1), "neg": math.Copysign(0, -1)}},
	"digest": {ID: 5, Op: OpDigest, Tenant: "acme"},
	"stats":  {ID: math.MaxUint64, Op: OpStats},
	"fault":  {ID: 6, Op: OpFault, Tenant: "acme", Fault: "stall", StallMillis: 200},
	"negative": {ID: 8, Op: "warp", DeadlineMillis: -5, StallMillis: math.MinInt64, Rows: -1e308,
		Distinct: map[string]float64{"x": math.SmallestNonzeroFloat64}},
	"zero": {},
}

// codecResponses sets every Response field at least once: each op's
// success payload and a typed error.
var codecResponses = map[string]*Response{
	"estimate": {ID: 2, OK: true, Estimate: &Estimate{Algorithm: "ELS", FinalSize: 1234.5,
		JoinOrder: []string{"S", "M", "B"}, CatalogVersion: 9, Warnings: []string{"urn default for S.s", ""}}},
	"estimate-bare": {ID: 2, OK: true, Estimate: &Estimate{}},
	"query": {ID: 3, OK: true, Result: &Result{Count: 3, Columns: []string{"S.s", "S.t"},
		Rows: [][]string{{"1", "a"}, {"2", ""}, {"3", strings.Repeat("x", 300)}}, CatalogVersion: 9}},
	"count":   {ID: 3, OK: true, Result: &Result{Count: -1}},
	"explain": {ID: 4, OK: true, Explain: strings.Repeat("plan line\n", 40)},
	"declare": {ID: 7, OK: true, Version: 12},
	"digest":  {ID: 5, OK: true, Version: 12, Digest: "3f9a"},
	"stats": {ID: 6, OK: true, Stats: &ServerStats{ActiveConns: 2, Requests: 40, Draining: true, UptimeMillis: 1.5,
		Tenants: []TenantStats{{Tenant: "acme", Durable: true, Requests: 3, P50Millis: 0.25,
			PlanCache: counters.PlanCache{Hits: 4}}}}},
	"error": {ID: 8, Err: &Error{Code: "tenant", Message: "tenant acme quarantined", Retryable: true,
		RetryAfterMillis: 30, Tenant: "acme", Quarantined: true}},
	"error-empty": {Err: &Error{}},
	"zero":        {},
}

// TestCodecRoundTrip round-trips every field of Request and Response over
// every op kind and an error response, and re-encodes to the same bytes.
func TestCodecRoundTrip(t *testing.T) {
	for name, req := range codecRequests {
		raw, err := EncodeRequest(req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := DecodeRequest(raw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(back, req) {
			t.Errorf("request %s: round trip gave %+v, want %+v", name, back, req)
		}
		if again, _ := EncodeRequest(back); !bytes.Equal(again, raw) {
			t.Errorf("request %s: re-encoding changed the bytes", name)
		}
	}
	for name, resp := range codecResponses {
		raw, err := EncodeResponse(resp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := DecodeResponse(raw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(back, resp) {
			t.Errorf("response %s: round trip gave %+v, want %+v", name, back, resp)
		}
		if again, _ := EncodeResponse(back); !bytes.Equal(again, raw) {
			t.Errorf("response %s: re-encoding changed the bytes", name)
		}
	}
	// A Distinct map encodes canonically whatever order it was filled in.
	a, _ := EncodeRequest(&Request{Distinct: map[string]float64{"x": 1, "y": 2, "z": 3}})
	for range 10 {
		m := map[string]float64{}
		for _, k := range []string{"z", "y", "x"} {
			m[k] = map[string]float64{"x": 1, "y": 2, "z": 3}[k]
		}
		if b, _ := EncodeRequest(&Request{Distinct: m}); !bytes.Equal(a, b) {
			t.Fatal("equal Distinct maps encoded to different bytes")
		}
	}
}

// Decoded rows share one cell array, capacity-capped per row.
func TestDecodedRowsShareOneCellArray(t *testing.T) {
	raw, err := EncodeResponse(codecResponses["query"])
	if err != nil {
		t.Fatal(err)
	}
	resp, err := DecodeResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	rows := resp.Result.Rows
	cell := unsafe.Sizeof("")
	for i := 1; i < len(rows); i++ {
		prev, next := uintptr(unsafe.Pointer(unsafe.SliceData(rows[i-1]))), uintptr(unsafe.Pointer(unsafe.SliceData(rows[i])))
		if next != prev+uintptr(len(rows[i-1]))*cell {
			t.Fatalf("row %d does not follow row %d in one cell array", i, i-1)
		}
		if cap(rows[i-1]) != len(rows[i-1]) {
			t.Fatalf("row %d has capacity %d past its %d cells", i-1, cap(rows[i-1]), len(rows[i-1]))
		}
	}
}

// appendField appends one raw field, for payloads the encoder never makes.
func appendField(b []byte, num, kind uint64, value []byte) []byte {
	b = binary.AppendUvarint(b, num<<3|kind)
	if kind == kindBytes {
		b = binary.AppendUvarint(b, uint64(len(value)))
	}
	return append(b, value...)
}

// A field number the decoder does not know is skipped by its kind, so a
// newer peer's payload decodes to the fields this one knows.
func TestCodecSkipsUnknownFields(t *testing.T) {
	req := codecRequests["declare"]
	raw, _ := EncodeRequest(req)
	fixed := binary.LittleEndian.AppendUint64(nil, 42)
	for _, num := range []uint64{12, 99, 1 << 20} {
		ext := append([]byte(nil), raw...)
		ext = appendField(ext, num, kindVarint, binary.AppendUvarint(nil, 1<<62))
		ext = appendField(ext, num, kindFixed64, fixed)
		ext = appendField(ext, num, kindBytes, []byte("future"))
		back, err := DecodeRequest(ext)
		if err != nil || !reflect.DeepEqual(back, req) {
			t.Fatalf("unknown field %d: %+v, %v", num, back, err)
		}
	}
	resp := codecResponses["estimate"]
	raw, _ = EncodeResponse(resp)
	ext := appendField(append([]byte(nil), raw...), 10, kindBytes, []byte{0xff, 0xff})
	if back, err := DecodeResponse(ext); err != nil || !reflect.DeepEqual(back, resp) {
		t.Fatalf("unknown response field: %+v, %v", back, err)
	}
}

// Every malformed payload is ErrBadWire, never a panic: garbage and old
// JSON payloads, a wrong version, truncation anywhere, a length past the
// bytes left, a known field of the wrong kind, an unknown kind, field 0.
func TestCodecRefusesMalformedPayloads(t *testing.T) {
	req, _ := EncodeRequest(codecRequests["declare"])
	resp, _ := EncodeResponse(codecResponses["query"])
	v := []byte{codecVersion}
	cases := map[string][]byte{
		"empty":             {},
		"not json":          []byte("not json"),
		"json request":      []byte(`{"id":1,"op":"ping"}`),
		"half json":         []byte("{"),
		"version 2":         append([]byte{2}, req[1:]...),
		"truncated varint":  append(v, 0x08, 0x80),
		"truncated tag":     append(v, 0x80),
		"overlong varint":   append(v, 0x08, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f),
		"length past end":   append(v, byte(reqSQL<<3|kindBytes), 5, 'a'),
		"huge length":       append(v, byte(reqSQL<<3|kindBytes), 0xff, 0xff, 0xff, 0xff, 0x0f),
		"truncated fixed64": append(v, byte(reqRows<<3|kindFixed64), 1, 2, 3),
		"wrong kind":        appendField(v, reqSQL, kindVarint, []byte{1}),
		"wrong kind fixed":  appendField(v, reqID, kindFixed64, make([]byte, 8)),
		"unknown kind":      append(v, byte(reqSQL<<3|5)),
		"field zero":        append(v, 0x00, 0x01),
		"bad nested":        appendField(v, reqDistinct, kindBytes, []byte{byte(distinctCount<<3 | kindBytes), 0}),
	}
	for i := 1; i < len(req); i++ {
		cases[fmt.Sprintf("request cut at %d", i)] = req[:i]
	}
	for name, b := range cases {
		if _, err := DecodeRequest(b); !errors.Is(err, governor.ErrBadWire) {
			// A cut that lands on a field boundary is a shorter valid request.
			if !strings.HasPrefix(name, "request cut") || err != nil {
				t.Errorf("request %s: %v, want ErrBadWire", name, err)
			}
		}
	}
	respCases := map[string][]byte{
		"json response": []byte(`{"id":1,"ok":true}`),
		"bad stats":     appendField(v, respStats, kindBytes, []byte("{")),
		"stats kind":    appendField(v, respStats, kindVarint, []byte{1}),
		"bad row":       appendField(v, respResult, kindBytes, appendField(nil, resRows, kindBytes, []byte{0x80})),
		"row kind":      appendField(v, respResult, kindBytes, appendField(nil, resRows, kindVarint, []byte{1})),
		"cell kind":     appendField(v, respResult, kindBytes, appendField(nil, resRows, kindBytes, appendField(nil, rowCell, kindVarint, []byte{1}))),
		"error kind":    appendField(v, respErr, kindFixed64, make([]byte, 8)),
		"result cut":    resp[:len(resp)-2],
	}
	for name, b := range respCases {
		if _, err := DecodeResponse(b); !errors.Is(err, governor.ErrBadWire) {
			t.Errorf("response %s: %v, want ErrBadWire", name, err)
		}
	}
}

// codecPairs are the round trips TestCodecAllocationCeiling bounds: a
// request and the response it draws, as a serving workload issues them.
func codecPairs() map[string]struct {
	req  *Request
	resp *Response
} {
	rows := make([][]string, 100)
	for i := range rows {
		rows[i] = []string{fmt.Sprint(i), fmt.Sprint(i % 7), fmt.Sprint(1000 + i)}
	}
	return map[string]struct {
		req  *Request
		resp *Response
	}{
		"estimate": {
			&Request{ID: 9, Op: OpEstimate, Tenant: "t0", DeadlineMillis: 30000,
				SQL: "SELECT COUNT(*) FROM R0, R1, R2 WHERE R0.a = R1.a AND R1.b = R2.b"},
			&Response{ID: 9, OK: true, Estimate: &Estimate{Algorithm: "ELS", FinalSize: 51234.75,
				JoinOrder: []string{"R0", "R1", "R2"}, CatalogVersion: 17}},
		},
		"query100": {
			&Request{ID: 9, Op: OpQuery, Tenant: "t0", DeadlineMillis: 30000,
				SQL: "SELECT R0.a, R0.b, R1.c FROM R0, R1 WHERE R0.a = R1.a"},
			&Response{ID: 9, OK: true, Result: &Result{Count: 100,
				Columns: []string{"R0.a", "R0.b", "R1.c"}, Rows: rows, CatalogVersion: 17}},
		},
		"explain": {
			&Request{ID: 9, Op: OpExplain, Tenant: "t0", DeadlineMillis: 30000,
				SQL: "SELECT COUNT(*) FROM R0, R1 WHERE R0.a = R1.a"},
			&Response{ID: 9, OK: true, Explain: strings.Repeat("HashJoin(R0.a = R1.a) est=1234 rows\n", 60)},
		},
		"declare": {
			&Request{ID: 9, Op: OpDeclare, Tenant: "t0", DeadlineMillis: 30000, Table: "W0", Rows: 2000,
				Distinct: map[string]float64{"a": 100}},
			&Response{ID: 9, OK: true, Version: 18},
		},
		"error": {
			&Request{ID: 9, Op: OpEstimate, Tenant: "t0", DeadlineMillis: 30000, SQL: "SELEKT"},
			&Response{ID: 9, Err: &Error{Code: "parse", Message: "els: parse error: expected SELECT at offset 0"}},
		},
	}
}

// TestCodecAllocationCeiling bounds the allocations and bytes of one
// encode + decode of a request and of its response. The JSON codec this
// one replaced took, per pair: estimate 28 allocations / 1,520 B,
// 100-row query 430 / 16,176 B, explain 18 / 3,025 B. A decoder that
// allocated once per string or per cell fails the query100 row.
func TestCodecAllocationCeiling(t *testing.T) {
	ceilings := map[string]struct {
		allocs float64
		bytes  uint64
	}{
		"estimate": {8, 896},
		"query100": {9, 14336},
		"explain":  {6, 5632},
		"declare":  {8, 832},
		"error":    {7, 768},
	}
	for name, p := range codecPairs() {
		round := func() {
			rb, err := EncodeRequest(p.req)
			if err == nil {
				_, err = DecodeRequest(rb)
			}
			var pb []byte
			if err == nil {
				pb, err = EncodeResponse(p.resp)
			}
			if err == nil {
				_, err = DecodeResponse(pb)
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		// The fewest of a few runs: a stray runtime allocation during one
		// run (the race detector's, a GC's) is not the codec's.
		allocs, bytesPer, elapsed := math.Inf(1), uint64(math.MaxUint64), time.Duration(math.MaxInt64)
		for range 5 {
			allocs = min(allocs, testing.AllocsPerRun(50, round))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			t0 := time.Now()
			for range 50 {
				round()
			}
			elapsed = min(elapsed, time.Since(t0)/50)
			runtime.ReadMemStats(&after)
			bytesPer = min(bytesPer, (after.TotalAlloc-before.TotalAlloc)/50)
		}
		want := ceilings[name]
		t.Logf("%s: %.0f allocations, %d B, %v per pair", name, allocs, bytesPer, elapsed)
		if allocs > want.allocs {
			t.Errorf("%s: %.0f allocations per pair, ceiling %.0f", name, allocs, want.allocs)
		}
		if bytesPer > want.bytes {
			t.Errorf("%s: %d B per pair, ceiling %d", name, bytesPer, want.bytes)
		}
	}
}

// BenchmarkCodec times one encode + decode of each pair
// TestCodecAllocationCeiling bounds.
func BenchmarkCodec(b *testing.B) {
	for name, p := range codecPairs() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				rb, _ := EncodeRequest(p.req)
				if _, err := DecodeRequest(rb); err != nil {
					b.Fatal(err)
				}
				pb, _ := EncodeResponse(p.resp)
				if _, err := DecodeResponse(pb); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
