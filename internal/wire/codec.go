package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/governor"
)

// codecVersion is the first byte of every payload. A decoder refuses any
// other first byte, which covers a peer still speaking the JSON payloads
// ('{') this codec replaced.
const codecVersion = 1

// Field kinds, the low three bits of a field's tag.
const (
	kindVarint  = 0 // uvarint: unsigned integers, bools, zigzag int64s
	kindFixed64 = 1 // 8 little-endian bytes: float64 bits
	kindBytes   = 2 // uvarint length, then the bytes: a string, a message, JSON
)

// Field numbers, per message. A number is never reused or renumbered: a
// new field takes the next free number, and an older decoder skips it.
const (
	reqID       = 1  // varint
	reqOp       = 2  // bytes
	reqTenant   = 3  // bytes
	reqSQL      = 4  // bytes
	reqAlgo     = 5  // bytes
	reqDeadline = 6  // zigzag varint
	reqTable    = 7  // bytes
	reqRows     = 8  // fixed64
	reqDistinct = 9  // repeated message: distinctName, distinctCount
	reqFault    = 10 // bytes
	reqStall    = 11 // zigzag varint

	distinctName  = 1 // bytes
	distinctCount = 2 // fixed64

	respID       = 1 // varint
	respOK       = 2 // varint
	respErr      = 3 // message (Error)
	respEstimate = 4 // message (Estimate)
	respResult   = 5 // message (Result)
	respExplain  = 6 // bytes
	respVersion  = 7 // varint
	respDigest   = 8 // bytes
	respStats    = 9 // bytes: the ServerStats document's encoding/json bytes

	errCode        = 1 // bytes
	errMessage     = 2 // bytes
	errRetryable   = 3 // varint
	errRetryAfter  = 4 // zigzag varint
	errTenant      = 5 // bytes
	errQuarantined = 6 // varint

	estAlgorithm = 1 // bytes
	estFinalSize = 2 // fixed64
	estJoinOrder = 3 // repeated bytes
	estVersion   = 4 // varint
	estWarnings  = 5 // repeated bytes

	resCount   = 1 // zigzag varint
	resColumns = 2 // repeated bytes
	resRows    = 3 // repeated message: rowCell
	resVersion = 4 // varint

	rowCell = 1 // repeated bytes
)

// EncodeRequest encodes a request payload.
func EncodeRequest(req *Request) ([]byte, error) {
	// 96 bytes hold every tag, length and number, so the buffer is
	// allocated once.
	n := 96 + len(req.Op) + len(req.Tenant) + len(req.SQL) + len(req.Algo) + len(req.Table) + len(req.Fault)
	for k := range req.Distinct {
		n += len(k) + 24
	}
	e := encoder{b: make([]byte, 1, n)}
	e.b[0] = codecVersion
	e.uint(reqID, req.ID)
	e.str(reqOp, req.Op)
	e.str(reqTenant, req.Tenant)
	e.str(reqSQL, req.SQL)
	e.str(reqAlgo, req.Algo)
	e.int(reqDeadline, req.DeadlineMillis)
	e.str(reqTable, req.Table)
	e.float(reqRows, req.Rows)
	if len(req.Distinct) > 0 {
		// Sorted keys make the encoding canonical: equal requests, equal
		// bytes. A declaration names few columns: sort them on the stack.
		var few [8]string
		names := few[:0]
		for k := range req.Distinct {
			names = append(names, k)
		}
		slices.Sort(names)
		for _, k := range names {
			at := e.begin(reqDistinct)
			e.elem(distinctName, k)
			e.float(distinctCount, req.Distinct[k])
			e.end(at)
		}
	}
	e.str(reqFault, req.Fault)
	e.int(reqStall, req.StallMillis)
	return e.b, nil
}

// DecodeRequest decodes a request payload.
func DecodeRequest(b []byte) (*Request, error) {
	r := newReader(b)
	req := new(Request)
	var f field
	for r.next(&f) {
		switch f.num {
		case reqID:
			req.ID = r.uint(f)
		case reqOp:
			req.Op = r.str(f)
		case reqTenant:
			req.Tenant = r.str(f)
		case reqSQL:
			req.SQL = r.str(f)
		case reqAlgo:
			req.Algo = r.str(f)
		case reqDeadline:
			req.DeadlineMillis = r.int(f)
		case reqTable:
			req.Table = r.str(f)
		case reqRows:
			req.Rows = r.float(f)
		case reqDistinct:
			var name string
			var count float64
			outer := r.enter(f)
			for r.next(&f) {
				switch f.num {
				case distinctName:
					name = r.str(f)
				case distinctCount:
					count = r.float(f)
				}
			}
			if r.leave(outer) {
				if req.Distinct == nil {
					req.Distinct = make(map[string]float64)
				}
				req.Distinct[name] = count
			}
		case reqFault:
			req.Fault = r.str(f)
		case reqStall:
			req.StallMillis = r.int(f)
		}
	}
	if r.err != nil {
		return nil, fmt.Errorf("%w: decoding request: %v", governor.ErrBadWire, r.err)
	}
	return req, nil
}

// EncodeResponse encodes a response payload.
func EncodeResponse(resp *Response) ([]byte, error) {
	var stats []byte
	if resp.Stats != nil {
		var err error
		if stats, err = json.Marshal(resp.Stats); err != nil {
			return nil, fmt.Errorf("%w: encoding response stats: %w", governor.ErrBadWire, err)
		}
	}
	e := encoder{b: make([]byte, 1, responseSize(resp)+len(stats))}
	e.b[0] = codecVersion
	e.uint(respID, resp.ID)
	e.bool(respOK, resp.OK)
	if x := resp.Err; x != nil {
		at := e.begin(respErr)
		e.str(errCode, x.Code)
		e.str(errMessage, x.Message)
		e.bool(errRetryable, x.Retryable)
		e.int(errRetryAfter, x.RetryAfterMillis)
		e.str(errTenant, x.Tenant)
		e.bool(errQuarantined, x.Quarantined)
		e.end(at)
	}
	if x := resp.Estimate; x != nil {
		at := e.begin(respEstimate)
		e.str(estAlgorithm, x.Algorithm)
		e.float(estFinalSize, x.FinalSize)
		for _, s := range x.JoinOrder {
			e.elem(estJoinOrder, s)
		}
		e.uint(estVersion, x.CatalogVersion)
		for _, s := range x.Warnings {
			e.elem(estWarnings, s)
		}
		e.end(at)
	}
	if x := resp.Result; x != nil {
		at := e.begin(respResult)
		e.int(resCount, x.Count)
		for _, s := range x.Columns {
			e.elem(resColumns, s)
		}
		for _, row := range x.Rows {
			rat := e.begin(resRows)
			for _, s := range row {
				e.elem(rowCell, s)
			}
			e.end(rat)
		}
		e.uint(resVersion, x.CatalogVersion)
		e.end(at)
	}
	e.str(respExplain, resp.Explain)
	e.uint(respVersion, resp.Version)
	e.str(respDigest, resp.Digest)
	if stats != nil {
		e.tag(respStats, kindBytes)
		e.b = binary.AppendUvarint(e.b, uint64(len(stats)))
		e.b = append(e.b, stats...)
	}
	return e.b, nil
}

// responseSize bounds a response's encoding from above (stats aside), so
// EncodeResponse allocates its buffer once: a field costs its bytes plus
// at most 6 (a one-byte tag and a length below 2^35).
func responseSize(resp *Response) int {
	n := 48 + len(resp.Explain) + len(resp.Digest)
	if x := resp.Err; x != nil {
		n += 48 + len(x.Code) + len(x.Message) + len(x.Tenant)
	}
	if x := resp.Estimate; x != nil {
		n += 48 + len(x.Algorithm) + stringsSize(x.JoinOrder) + stringsSize(x.Warnings)
	}
	if x := resp.Result; x != nil {
		n += 48 + stringsSize(x.Columns)
		for _, row := range x.Rows {
			n += 6 + stringsSize(row)
		}
	}
	return n
}

func stringsSize(ss []string) int {
	n := 6 * len(ss)
	for _, s := range ss {
		n += len(s)
	}
	return n
}

// DecodeResponse decodes a response payload. The decoded strings share
// one copy of the payload, and a Result's rows share one cell array.
func DecodeResponse(b []byte) (*Response, error) {
	r := newReader(b)
	resp := new(Response)
	var f field
	for r.next(&f) {
		switch f.num {
		case respID:
			resp.ID = r.uint(f)
		case respOK:
			resp.OK = r.bool(f)
		case respErr:
			outer := r.enter(f)
			resp.Err = new(Error)
			resp.Err.decode(&r)
			r.leave(outer)
		case respEstimate:
			outer := r.enter(f)
			resp.Estimate = new(Estimate)
			resp.Estimate.decode(&r)
			r.leave(outer)
		case respResult:
			outer := r.enter(f)
			resp.Result = new(Result)
			resp.Result.decode(&r)
			r.leave(outer)
		case respExplain:
			resp.Explain = r.str(f)
		case respVersion:
			resp.Version = r.uint(f)
		case respDigest:
			resp.Digest = r.str(f)
		case respStats:
			if r.want(f, kindBytes) {
				resp.Stats = new(ServerStats)
				r.err = json.Unmarshal(r.b[f.lo:f.hi], resp.Stats)
			}
		}
	}
	if r.err != nil {
		return nil, fmt.Errorf("%w: decoding response: %v", governor.ErrBadWire, r.err)
	}
	return resp, nil
}

// decode reads an Error message: r narrowed to it by enter.
func (x *Error) decode(r *reader) {
	var f field
	for r.next(&f) {
		switch f.num {
		case errCode:
			x.Code = r.str(f)
		case errMessage:
			x.Message = r.str(f)
		case errRetryable:
			x.Retryable = r.bool(f)
		case errRetryAfter:
			x.RetryAfterMillis = r.int(f)
		case errTenant:
			x.Tenant = r.str(f)
		case errQuarantined:
			x.Quarantined = r.bool(f)
		}
	}
}

// decode reads an Estimate message. A first pass counts the repeated
// strings, so JoinOrder and Warnings share one exactly sized array.
func (x *Estimate) decode(r *reader) {
	var joins, warns int
	var f field
	start := r.pos
	for r.next(&f) {
		switch f.num {
		case estJoinOrder:
			joins++
		case estWarnings:
			warns++
		}
	}
	r.pos = start // an error sticks, so the second pass then reads nothing
	all := make([]string, joins+warns)
	x.JoinOrder, x.Warnings = all[:0:joins], all[joins:joins]
	for r.next(&f) {
		switch f.num {
		case estAlgorithm:
			x.Algorithm = r.str(f)
		case estFinalSize:
			x.FinalSize = r.float(f)
		case estJoinOrder:
			x.JoinOrder = append(x.JoinOrder, r.str(f))
		case estVersion:
			x.CatalogVersion = r.uint(f)
		case estWarnings:
			x.Warnings = append(x.Warnings, r.str(f))
		}
	}
	x.JoinOrder, x.Warnings = nilIfEmpty(x.JoinOrder), nilIfEmpty(x.Warnings)
}

// decode reads a Result message. A first pass counts columns, rows and
// cells, so the columns and every row's cells share one exactly sized
// array, as the in-process result's rows do.
func (x *Result) decode(r *reader) {
	var cols, rows, cells int
	var f field
	start := r.pos
	for r.next(&f) {
		switch f.num {
		case resColumns:
			cols++
		case resRows:
			rows++
			outer := r.enter(f)
			for r.next(&f) {
				if f.num == rowCell {
					cells++
				}
			}
			r.leave(outer)
		}
	}
	r.pos = start
	all := make([]string, cols+cells)
	x.Columns = all[:0:cols]
	if rows > 0 {
		x.Rows = make([][]string, 0, rows)
	}
	next := cols // all[next:] holds the cells not yet decoded
	for r.next(&f) {
		switch f.num {
		case resCount:
			x.Count = r.int(f)
		case resColumns:
			x.Columns = append(x.Columns, r.str(f))
		case resRows:
			first, outer := next, r.enter(f)
			for r.next(&f) {
				if f.num == rowCell && next < len(all) {
					all[next] = r.str(f)
					next++
				}
			}
			if r.leave(outer) {
				x.Rows = append(x.Rows, all[first:next:next])
			}
		case resVersion:
			x.CatalogVersion = r.uint(f)
		}
	}
	x.Columns = nilIfEmpty(x.Columns)
}

// nilIfEmpty maps an empty decoded list to nil, as an omitted one was.
func nilIfEmpty(ss []string) []string {
	if len(ss) == 0 {
		return nil
	}
	return ss
}

// encoder appends fields to a payload. A zero-valued singular field is
// omitted; an element of a repeated field is always written.
type encoder struct{ b []byte }

func (e *encoder) tag(num, kind uint64) { e.b = binary.AppendUvarint(e.b, num<<3|kind) }

func (e *encoder) uint(num, v uint64) {
	if v != 0 {
		e.tag(num, kindVarint)
		e.b = binary.AppendUvarint(e.b, v)
	}
}

// int writes v zigzag-encoded, so a small negative number stays short.
func (e *encoder) int(num uint64, v int64) { e.uint(num, uint64(v<<1)^uint64(v>>63)) }

func (e *encoder) bool(num uint64, v bool) {
	if v {
		e.uint(num, 1)
	}
}

// float writes v's bits unless they are all zero, so -0 and every NaN
// payload round-trip exactly.
func (e *encoder) float(num uint64, v float64) {
	if bits := math.Float64bits(v); bits != 0 {
		e.tag(num, kindFixed64)
		e.b = binary.LittleEndian.AppendUint64(e.b, bits)
	}
}

func (e *encoder) str(num uint64, s string) {
	if s != "" {
		e.elem(num, s)
	}
}

func (e *encoder) elem(num uint64, s string) {
	e.tag(num, kindBytes)
	e.b = binary.AppendUvarint(e.b, uint64(len(s)))
	e.b = append(e.b, s...)
}

// begin opens a nested message field with a one-byte length slot and
// returns where the message's bytes start; end fills the slot in.
func (e *encoder) begin(num uint64) int {
	e.tag(num, kindBytes)
	e.b = append(e.b, 0)
	return len(e.b)
}

// end writes the length of the message begun at at, moving its bytes
// right when the length needs more than the one byte begin reserved.
func (e *encoder) end(at int) {
	n := len(e.b) - at
	if n < 0x80 {
		e.b[at-1] = byte(n)
		return
	}
	var lenBuf [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(lenBuf[:], uint64(n))
	e.b = append(e.b, lenBuf[:w-1]...) // w-1 more bytes, overwritten below
	copy(e.b[at-1+w:], e.b[at:at+n])
	copy(e.b[at-1:], lenBuf[:w])
}

// field is one decoded field: its number and kind, and its value, which is
// u for a varint or fixed64 and payload[lo:hi] for a length-delimited one.
type field struct {
	num, kind uint64
	u         uint64
	lo, hi    int
}

// reader walks the fields of one message, payload[pos:end]. Its first
// error sticks: next then reports no more fields, and the accessors
// return zero values.
type reader struct {
	b        []byte // the payload
	s        string // the payload as one string: decoded strings are substrings
	pos, end int
	err      error
}

// newReader checks b's version byte and reads the message after it.
func newReader(b []byte) reader {
	switch {
	case len(b) == 0:
		return reader{err: errors.New("empty payload")}
	case b[0] != codecVersion:
		return reader{err: fmt.Errorf("payload version byte %#x, want %#x", b[0], codecVersion)}
	}
	return reader{b: b, s: string(b), pos: 1, end: len(b)}
}

// enter narrows r to the nested message f holds and returns the end of
// the message around it, which leave restores, past f. leave reports
// whether r is still without error.
func (r *reader) enter(f field) (outer int) {
	outer = r.end
	if r.want(f, kindBytes) {
		r.pos, r.end = f.lo, f.hi
	}
	return outer
}

func (r *reader) leave(outer int) bool {
	r.pos, r.end = r.end, outer
	return r.err == nil
}

// next reads the next field's tag and value into f, checking every length
// against the bytes left in the message. It reports false at the end of
// the message or on an error.
func (r *reader) next(f *field) bool {
	if r.err != nil || r.pos >= r.end {
		return false
	}
	tag := r.uvarint()
	f.num, f.kind = tag>>3, tag&7
	switch {
	case r.err != nil:
	case f.num == 0:
		r.err = fmt.Errorf("field number 0 before byte %d", r.pos)
	case f.kind == kindVarint:
		f.u = r.uvarint()
	case f.kind == kindFixed64:
		if r.end-r.pos < 8 {
			r.err = fmt.Errorf("field %d: truncated fixed64", f.num)
			break
		}
		f.u = binary.LittleEndian.Uint64(r.b[r.pos:])
		r.pos += 8
	case f.kind == kindBytes:
		n := r.uvarint()
		if r.err == nil && n > uint64(r.end-r.pos) {
			r.err = fmt.Errorf("field %d: length %d exceeds the %d bytes left", f.num, n, r.end-r.pos)
		}
		if r.err == nil {
			f.lo, f.hi = r.pos, r.pos+int(n)
			r.pos = f.hi
		}
	default:
		r.err = fmt.Errorf("field %d: unknown kind %d", f.num, f.kind)
	}
	return r.err == nil
}

func (r *reader) uvarint() uint64 {
	if r.pos < r.end && r.b[r.pos] < 0x80 {
		r.pos++
		return uint64(r.b[r.pos-1])
	}
	v, n := binary.Uvarint(r.b[r.pos:r.end])
	if n <= 0 {
		r.err = fmt.Errorf("truncated or overlong varint at byte %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

// want reports whether f has the kind its field number is declared with,
// recording an error if not.
func (r *reader) want(f field, kind uint64) bool {
	if f.kind != kind && r.err == nil {
		r.err = fmt.Errorf("field %d is kind %d, want %d", f.num, f.kind, kind)
	}
	return r.err == nil
}

func (r *reader) uint(f field) uint64 {
	if !r.want(f, kindVarint) {
		return 0
	}
	return f.u
}

// int reads a zigzag-encoded int64.
func (r *reader) int(f field) int64 {
	u := r.uint(f)
	return int64(u>>1) ^ -int64(u&1)
}

func (r *reader) bool(f field) bool { return r.uint(f) != 0 }

func (r *reader) float(f field) float64 {
	if !r.want(f, kindFixed64) {
		return 0
	}
	return math.Float64frombits(f.u)
}

func (r *reader) str(f field) string {
	if !r.want(f, kindBytes) {
		return ""
	}
	return r.s[f.lo:f.hi]
}
