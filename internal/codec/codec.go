// Package codec is the one binary form of an evaluation result, on disk
// and on the wire. A store segment (internal/store) is a sequence of
// frames, one record each; a fleet connection (internal/remote) is a
// stream of them, one message each. Both compose their bodies from the
// words below, so a result is encoded, bounded and checked one way.
//
// Frame layout (all integers little-endian):
//
//	u32  body length (bytes after the 8-byte header)
//	u32  CRC32 (IEEE) of the body
//	body
//
// The length prefix frames a log or a stream: a torn append or a cut
// connection shows as a short or out-of-bound length. The CRC catches
// corruption inside a fully framed body. Every reader passes the largest
// body it expects, so a length prefix beyond it is refused before
// anything is allocated for it.
//
// Body words:
//
//	string   u16 length, then the bytes
//	job      6 × u64: Tau0, VDAC0, VDACFS, Corner, VDD, TempC
//	metrics  7 × u64: EpsMul, EpsLarge, EpsSmall, EMul, SigmaMaxLSB,
//	         SigmaMaxVolt, LSBVolt
//
// Floats travel as math.Float64bits, so every value, -0 and denormals
// included, round-trips exactly: a stored or remote result is
// byte-identical to a fresh local one. Metrics.Config and Metrics.Cond
// are not encoded. They duplicate the job by construction, and the
// decoder fills them from the job it read or shipped.
//
// Bodies are written in place: Begin reserves the header, the Append
// functions extend the body, and End fills the header in, so a record or
// a frame costs one buffer. A Reader decodes a body strictly: every read
// is bounds-checked, the first failure sticks, Done rejects trailing
// bytes, and Metrics refuses a non-finite word (engine.Metrics.Finite),
// so a value no backend computed never reaches a cache.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"optima/internal/device"
	"optima/internal/engine"
	"optima/internal/mult"
)

// HeaderLen is the fixed frame header: body length and CRC32.
const HeaderLen = 8

// JobLen and MetricsLen are the encoded sizes of a job and of metrics.
const (
	JobLen     = 6 * 8
	MetricsLen = 7 * 8
)

// ErrCorrupt is wrapped by every frame and body decode failure.
var ErrCorrupt = errors.New("codec: corrupt frame")

// Begin appends a frame header to buf, for End to fill in, and makes room
// for a body of bodyLen bytes so the appends that follow do not grow buf
// again. The frame starts at len(buf) before the call.
func Begin(buf []byte, bodyLen int) []byte {
	buf = slices.Grow(buf, HeaderLen+bodyLen)
	return append(buf, make([]byte, HeaderLen)...)
}

// End completes the frame Begin started at offset start of buf: everything
// after its header is the body.
func End(buf []byte, start int) []byte {
	body := buf[start+HeaderLen:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(body))
	return buf
}

// AppendU32 appends a little-endian u32.
func AppendU32(buf []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(buf, v) }

// AppendU64 appends a little-endian u64.
func AppendU64(buf []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(buf, v) }

// AppendStr appends s with its u16 length prefix; s must be under 64 KiB.
func AppendStr(buf []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint16(buf, uint16(len(s))), s...)
}

// AppendJob appends a job's six words.
func AppendJob(buf []byte, j engine.Job) []byte {
	return appendWords(buf,
		math.Float64bits(j.Config.Tau0), math.Float64bits(j.Config.VDAC0), math.Float64bits(j.Config.VDACFS),
		uint64(j.Cond.Corner), math.Float64bits(j.Cond.VDD), math.Float64bits(j.Cond.TempC))
}

// AppendMetrics appends the seven metric words; Config and Cond are left
// to the job.
func AppendMetrics(buf []byte, m engine.Metrics) []byte {
	return appendWords(buf,
		math.Float64bits(m.EpsMul), math.Float64bits(m.EpsLarge), math.Float64bits(m.EpsSmall),
		math.Float64bits(m.EMul), math.Float64bits(m.SigmaMaxLSB), math.Float64bits(m.SigmaMaxVolt),
		math.Float64bits(m.LSBVolt))
}

func appendWords(buf []byte, words ...uint64) []byte {
	for _, w := range words {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

// Frame checks the frame at the head of data, whose body may be at most
// maxBody bytes, and returns the body (aliasing data) and the bytes the frame
// spans. A short, oversized or CRC-damaged frame is an error.
func Frame(data []byte, maxBody int) (body []byte, n int, err error) {
	if len(data) < HeaderLen {
		return nil, 0, fmt.Errorf("%w: truncated header (%d bytes)", ErrCorrupt, len(data))
	}
	size, err := bodyLen(data, maxBody)
	if err != nil {
		return nil, 0, err
	}
	if HeaderLen+size > len(data) {
		return nil, 0, fmt.Errorf("%w: truncated body (%d of %d bytes)", ErrCorrupt, len(data)-HeaderLen, size)
	}
	body = data[HeaderLen : HeaderLen+size]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[4:]) {
		return nil, 0, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	return body, HeaderLen + size, nil
}

// ReadFrame reads one frame of at most maxBody body bytes from r and
// returns its checked body and the bytes read. The body is allocated only
// after its length passed maxBody, so a peer cannot make the reader hold more by
// claiming it. A failure to read the header is returned as is (io.EOF
// when r ends cleanly between frames).
func ReadFrame(r io.Reader, maxBody int) (body []byte, n int, err error) {
	var head [HeaderLen]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, 0, err
	}
	size, err := bodyLen(head[:], maxBody)
	if err != nil {
		return nil, 0, err
	}
	frame := make([]byte, HeaderLen+size)
	copy(frame, head[:])
	if _, err := io.ReadFull(r, frame[HeaderLen:]); err != nil {
		return nil, 0, fmt.Errorf("%w: short body: %w", ErrCorrupt, err)
	}
	return Frame(frame, maxBody)
}

// bodyLen reads the body length of a frame header and holds it to maxBody.
func bodyLen(head []byte, maxBody int) (int, error) {
	size := binary.LittleEndian.Uint32(head)
	if uint64(size) > uint64(maxBody) {
		return 0, fmt.Errorf("%w: body length %d over bound %d", ErrCorrupt, size, maxBody)
	}
	return int(size), nil
}

// Reader decodes one frame body strictly. Every read checks its bounds;
// after the first failure reads return zeros, and Done reports it.
type Reader struct {
	rest []byte // the bytes not yet read
	err  error
}

// NewReader returns a Reader over body.
func NewReader(body []byte) Reader { return Reader{rest: body} }

// zeros stands in for the bytes of every read after a failure.
var zeros [MetricsLen]byte

// take consumes the next n bytes; once a read has failed it returns zeros.
func (r *Reader) take(n int) []byte {
	if r.err == nil && n > len(r.rest) {
		r.Fail("truncated: %d bytes left, want %d", len(r.rest), n)
	}
	if r.err != nil {
		return zeros[:min(n, len(zeros))]
	}
	b := r.rest[:n]
	r.rest = r.rest[n:]
	return b
}

// U8 reads one byte.
func (r *Reader) U8() byte { return r.take(1)[0] }

// U32 reads a little-endian u32.
func (r *Reader) U32() uint32 { return binary.LittleEndian.Uint32(r.take(4)) }

// U64 reads a little-endian u64.
func (r *Reader) U64() uint64 { return binary.LittleEndian.Uint64(r.take(8)) }

// Str reads a u16-length string.
func (r *Reader) Str() string { return string(r.StrBytes()) }

// StrBytes reads a u16-length string's bytes, aliasing the body.
func (r *Reader) StrBytes() []byte { return r.take(int(binary.LittleEndian.Uint16(r.take(2)))) }

// Job reads a job's six words.
func (r *Reader) Job() engine.Job {
	w := (*[JobLen]byte)(r.take(JobLen))
	return engine.Job{
		Config: mult.Config{Tau0: f64(w[0:]), VDAC0: f64(w[8:]), VDACFS: f64(w[16:])},
		Cond: device.PVT{
			Corner: device.ProcessCorner(binary.LittleEndian.Uint64(w[24:])),
			VDD:    f64(w[32:]),
			TempC:  f64(w[40:]),
		},
	}
}

// Metrics reads the seven metric words; Config and Cond stay zero for the
// caller to fill from the job. A non-finite word fails the read: no
// backend computes one, so it is damage or a lying peer.
func (r *Reader) Metrics() engine.Metrics {
	w := (*[MetricsLen]byte)(r.take(MetricsLen))
	m := engine.Metrics{
		EpsMul: f64(w[0:]), EpsLarge: f64(w[8:]), EpsSmall: f64(w[16:]), EMul: f64(w[24:]),
		SigmaMaxLSB: f64(w[32:]), SigmaMaxVolt: f64(w[40:]), LSBVolt: f64(w[48:]),
	}
	if !m.Finite() {
		r.Fail("non-finite metrics")
		return engine.Metrics{}
	}
	return m
}

func f64(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

// Len reports the bytes not yet read.
func (r *Reader) Len() int { return len(r.rest) }

// Fail records a failure the caller found in what it read (an unknown tag,
// a count out of bounds). Like a failed read it sticks; only the first
// failure is kept.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

// Done returns the first failure, or an error if bytes remain unread.
func (r *Reader) Done() error {
	if r.err == nil && len(r.rest) != 0 {
		r.Fail("%d trailing bytes", len(r.rest))
	}
	return r.err
}
