package remote

import (
	"fmt"
	"io"

	"optima/internal/codec"
	"optima/internal/engine"
)

// Wire format v1: both directions of the coordinator/worker connection are
// streams of internal/codec frames, the store's record framing applied to
// a stream instead of a segment file: a u32 body length and a u32 CRC32 of
// the body, which is
//
//	u8   frame type (frameHello, frameWelcome, frameBatch, frameResult)
//	type-specific payload of codec words (see the frame types below)
//
// Jobs and metrics are the codec's words, so a remote evaluation is
// byte-identical to a local one. Metrics.Config and Metrics.Cond are not
// sent; the coordinator fills them from the job it shipped.
//
// Decoding is strict (codec.Reader): trailing bytes, a truncated word, an
// out-of-range count, an unknown status byte or a non-finite metric is an
// error, never a partial decode. So is a frame over the bound its reader
// passes, which is the largest frame of the type it expects: a hello or a
// result costs the coordinator at most about 4 KiB, whatever the header
// claims. Any failure poisons the connection. Unlike a store segment there
// is no readable-prefix recovery; the peer is dropped and its cells
// reassigned.

// protoVersion is the wire protocol version, checked in the hello/welcome
// handshake. Bump it on any frame-layout change.
const protoVersion = 1

// Frame types.
const (
	// frameHello is the worker's opening frame: protocol version,
	// calibration fingerprint, and evaluation capacity.
	frameHello = 1
	// frameWelcome is the coordinator's handshake reply: an empty reason
	// accepts the worker, a non-empty reason rejects it.
	frameWelcome = 2
	// frameBatch ships a group of (backend, config, condition) cells from
	// the coordinator to one worker.
	frameBatch = 3
	// frameResult streams one evaluated cell (metrics or error) back from
	// a worker.
	frameResult = 4
)

// maxStringLen bounds the strings a peer sends inside payloads
// (fingerprints, rejection reasons, error messages).
const maxStringLen = 1 << 12

// Body bounds of each frame type, as read: the type byte, the fixed words
// and at most one maxStringLen string. A batch of a few thousand cells is
// under a megabyte, so maxFrameLen bounds it with room to spare.
const (
	maxHelloLen   = 1 + 4 + 2 + maxStringLen + 4
	maxWelcomeLen = 1 + 2 + maxStringLen
	maxResultLen  = 1 + 8 + 4 + 8 + 1 + 2 + maxStringLen
	maxFrameLen   = 1 << 24
)

// readFrame reads one frame of at most maxBody body bytes and splits its
// body into the type byte and the payload. It blocks until a full frame
// arrives; a closed or broken connection surfaces as the read error.
func readFrame(r io.Reader, maxBody int) (typ byte, payload []byte, n int, err error) {
	return typed(codec.ReadFrame(r, maxBody))
}

// typed splits a frame body into its type byte and payload.
func typed(body []byte, n int, err error) (byte, []byte, int, error) {
	if err == nil && len(body) == 0 {
		err = fmt.Errorf("%w: empty body", codec.ErrCorrupt)
	}
	if err != nil {
		return 0, nil, 0, err
	}
	return body[0], body[1:], n, nil
}

// begin starts a frame of type typ whose payload is about payloadLen
// bytes; the encoder appends the payload and closes the frame with
// codec.End.
func begin(buf []byte, typ byte, payloadLen int) []byte {
	return append(codec.Begin(buf, 1+payloadLen), typ)
}

// helloFrame is the worker's handshake payload.
type helloFrame struct {
	Proto       uint32
	Fingerprint string
	Capacity    uint32
}

func appendHello(buf []byte, h helloFrame) []byte {
	start := len(buf)
	buf = begin(buf, frameHello, 4+2+len(h.Fingerprint)+4)
	buf = codec.AppendStr(codec.AppendU32(buf, h.Proto), h.Fingerprint)
	return codec.End(codec.AppendU32(buf, h.Capacity), start)
}

func decodeHello(payload []byte) (helloFrame, error) {
	r := codec.NewReader(payload)
	h := helloFrame{Proto: r.U32(), Fingerprint: r.Str(), Capacity: r.U32()}
	return h, r.Done()
}

// welcomeFrame is the coordinator's handshake reply. An empty Reject
// accepts the worker.
type welcomeFrame struct {
	Reject string
}

func appendWelcome(buf []byte, w welcomeFrame) []byte {
	start := len(buf)
	buf = begin(buf, frameWelcome, 2+len(w.Reject))
	return codec.End(codec.AppendStr(buf, w.Reject), start)
}

func decodeWelcome(payload []byte) (welcomeFrame, error) {
	r := codec.NewReader(payload)
	w := welcomeFrame{Reject: r.Str()}
	return w, r.Done()
}

// batchCell is one shipped (config, condition) cell, addressed by its
// index within the dispatch so results route back without re-keying.
type batchCell struct {
	Index uint32
	Job   engine.Job
}

// batchCellLen is a cell's encoded size: its index and its job.
const batchCellLen = 4 + codec.JobLen

// batchFrame ships a group of cells of one dispatch to one worker. Cells
// are always encoded in ascending Index order — the coordinator sorts
// before shipping, so the bytes of a batch are a pure function of its
// cell set.
type batchFrame struct {
	Dispatch uint64
	Backend  string
	Cells    []batchCell
}

// maxBatchCells bounds the cell count of one batch frame; with the fixed
// 52-byte cell encoding this keeps a maximal batch under maxFrameLen.
const maxBatchCells = 1 << 17

func appendBatch(buf []byte, b batchFrame) []byte {
	start := len(buf)
	buf = begin(buf, frameBatch, 8+2+len(b.Backend)+4+len(b.Cells)*batchCellLen)
	buf = codec.AppendStr(codec.AppendU64(buf, b.Dispatch), b.Backend)
	buf = codec.AppendU32(buf, uint32(len(b.Cells)))
	for _, cell := range b.Cells {
		buf = codec.AppendJob(codec.AppendU32(buf, cell.Index), cell.Job)
	}
	return codec.End(buf, start)
}

func decodeBatch(payload []byte) (batchFrame, error) {
	r := codec.NewReader(payload)
	b := batchFrame{Dispatch: r.U64(), Backend: r.Str()}
	n := int(r.U32())
	switch {
	case n > maxBatchCells:
		r.Fail("batch cell count %d over bound %d", n, maxBatchCells)
	case r.Len() != n*batchCellLen:
		r.Fail("batch body %d bytes, want %d for %d cells", r.Len(), n*batchCellLen, n)
	default:
		b.Cells = make([]batchCell, n)
		for i := range b.Cells {
			b.Cells[i] = batchCell{Index: r.U32(), Job: r.Job()}
		}
	}
	return b, r.Done()
}

// Result statuses.
const (
	resultOK  = 1
	resultErr = 2
)

// resultFrame streams one evaluated cell back. DurNS is the worker-side
// evaluation duration on the worker recorder's clock — telemetry only, it
// never feeds the metrics. Status selects the tail: metrics on resultOK,
// an error string (at most maxStringLen bytes) on resultErr.
type resultFrame struct {
	Dispatch uint64
	Index    uint32
	DurNS    uint64
	Status   byte
	Met      engine.Metrics // Config/Cond omitted; reconstructed from the job
	Err      string
}

func appendResult(buf []byte, r resultFrame) []byte {
	msg := r.Err[:min(len(r.Err), maxStringLen)]
	start := len(buf)
	buf = begin(buf, frameResult, 8+4+8+1+max(codec.MetricsLen, 2+len(msg)))
	buf = codec.AppendU64(codec.AppendU32(codec.AppendU64(buf, r.Dispatch), r.Index), r.DurNS)
	buf = append(buf, r.Status)
	switch r.Status {
	case resultOK:
		buf = codec.AppendMetrics(buf, r.Met)
	case resultErr:
		buf = codec.AppendStr(buf, msg)
	}
	return codec.End(buf, start)
}

func decodeResult(payload []byte) (resultFrame, error) {
	r := codec.NewReader(payload)
	res := resultFrame{Dispatch: r.U64(), Index: r.U32(), DurNS: r.U64(), Status: r.U8()}
	switch res.Status {
	case resultOK:
		res.Met = r.Metrics()
	case resultErr:
		if res.Err = r.Str(); len(res.Err) > maxStringLen {
			r.Fail("error string length %d over bound %d", len(res.Err), maxStringLen)
		}
	default:
		r.Fail("unknown result status %d", res.Status)
	}
	return res, r.Done()
}
