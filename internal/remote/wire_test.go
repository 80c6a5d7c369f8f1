package remote

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"optima/internal/codec"
	"optima/internal/device"
	"optima/internal/engine"
	"optima/internal/mult"
)

// decodeFrame splits the frame at the head of data, as readFrame does for
// a stream.
func decodeFrame(data []byte) (typ byte, payload []byte, n int, err error) {
	return typed(codec.Frame(data, maxFrameLen))
}

// testBatch exercises every encoded field, including the float values that
// only exact bit round-trips preserve (-0, denormals, huge magnitudes).
func testBatch() batchFrame {
	return batchFrame{
		Dispatch: 7,
		Backend:  "behavioral",
		Cells: []batchCell{
			{Index: 0, Job: engine.Job{
				Config: mult.Config{Tau0: 0.16e-9, VDAC0: 0.3, VDACFS: 1.0},
				Cond:   device.PVT{Corner: device.CornerTT, VDD: 1.0, TempC: 27},
			}},
			{Index: 3, Job: engine.Job{
				Config: mult.Config{Tau0: math.Copysign(0, -1), VDAC0: 5e-324, VDACFS: 1e300},
				Cond:   device.PVT{Corner: device.CornerSS, VDD: 0.9, TempC: -40},
			}},
		},
	}
}

func TestHelloRoundTrip(t *testing.T) {
	in := helloFrame{Proto: protoVersion, Fingerprint: "fp-abc123", Capacity: 8}
	frame := appendHello(nil, in)
	typ, payload, n, err := decodeFrame(frame)
	if err != nil || typ != frameHello || n != len(frame) {
		t.Fatalf("decodeFrame: typ=%d n=%d err=%v", typ, n, err)
	}
	out, err := decodeHello(payload)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("hello round-trip: got %+v, want %+v", out, in)
	}
}

func TestWelcomeRoundTrip(t *testing.T) {
	for _, reject := range []string{"", "calibration fingerprint mismatch"} {
		frame := appendWelcome(nil, welcomeFrame{Reject: reject})
		typ, payload, _, err := decodeFrame(frame)
		if err != nil || typ != frameWelcome {
			t.Fatalf("decodeFrame: typ=%d err=%v", typ, err)
		}
		out, err := decodeWelcome(payload)
		if err != nil {
			t.Fatal(err)
		}
		if out.Reject != reject {
			t.Fatalf("welcome round-trip: got %q, want %q", out.Reject, reject)
		}
	}
}

func TestBatchRoundTrip(t *testing.T) {
	in := testBatch()
	frame := appendBatch(nil, in)
	typ, payload, _, err := decodeFrame(frame)
	if err != nil || typ != frameBatch {
		t.Fatalf("decodeFrame: typ=%d err=%v", typ, err)
	}
	out, err := decodeBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if out.Dispatch != in.Dispatch || out.Backend != in.Backend || len(out.Cells) != len(in.Cells) {
		t.Fatalf("batch header round-trip: got %+v, want %+v", out, in)
	}
	for i := range in.Cells {
		want, got := in.Cells[i], out.Cells[i]
		if got.Index != want.Index || got.Job != want.Job {
			// Compare the bit patterns too: -0 == 0 under ==, but the wire
			// must preserve the sign bit for byte-identity.
			t.Fatalf("cell %d round-trip: got %+v, want %+v", i, got, want)
		}
	}
	if got, want := math.Float64bits(out.Cells[1].Job.Config.Tau0), math.Float64bits(in.Cells[1].Job.Config.Tau0); got != want {
		t.Fatalf("negative zero lost: bits %x, want %x", got, want)
	}
}

func TestResultRoundTrip(t *testing.T) {
	ok := resultFrame{
		Dispatch: 9, Index: 4, DurNS: 12345, Status: resultOK,
		Met: engine.Metrics{
			EpsMul: 0.25, EpsLarge: 0.5, EpsSmall: math.Copysign(0, -1),
			EMul: 21e-15, SigmaMaxLSB: 0.04, SigmaMaxVolt: 5.04e-3, LSBVolt: 1e300,
		},
	}
	frame := appendResult(nil, ok)
	typ, payload, _, err := decodeFrame(frame)
	if err != nil || typ != frameResult {
		t.Fatalf("decodeFrame: typ=%d err=%v", typ, err)
	}
	out, err := decodeResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	if out.Dispatch != ok.Dispatch || out.Index != ok.Index || out.DurNS != ok.DurNS || out.Status != byte(resultOK) {
		t.Fatalf("result header: got %+v", out)
	}
	if math.Float64bits(out.Met.EpsSmall) != math.Float64bits(ok.Met.EpsSmall) || out.Met != ok.Met {
		t.Fatalf("metrics round-trip: got %+v, want %+v", out.Met, ok.Met)
	}

	fail := resultFrame{Dispatch: 9, Index: 5, Status: resultErr, Err: "backend exploded"}
	typ, payload, _, err = decodeFrame(appendResult(nil, fail))
	if err != nil || typ != frameResult {
		t.Fatalf("decodeFrame: typ=%d err=%v", typ, err)
	}
	out, err = decodeResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	if out.Err != fail.Err {
		t.Fatalf("error round-trip: got %q, want %q", out.Err, fail.Err)
	}

	// Oversized error strings truncate rather than overflow the length
	// prefix.
	long := resultFrame{Status: resultErr, Err: strings.Repeat("x", maxStringLen+100)}
	_, payload, _, err = decodeFrame(appendResult(nil, long))
	if err != nil {
		t.Fatal(err)
	}
	out, err = decodeResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Err) != maxStringLen {
		t.Fatalf("oversized error string: %d bytes after round-trip, want %d", len(out.Err), maxStringLen)
	}
}

// TestFrameBytesPinned pins protocol v1 byte for byte: one frame of each
// type, with the batch carrying -0, the smallest denormal and 1e300, and an
// error result over 4 KiB (its message truncated to maxStringLen). The
// expected bytes were captured from the wire encoder before it was rebuilt
// on internal/codec, so coordinators and workers of earlier v1 builds
// interoperate with this one.
func TestFrameBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		name  string
		frame []byte
		want  string
	}{
		{"hello", appendHello(nil, helloFrame{Proto: protoVersion, Fingerprint: "fp-abc123", Capacity: 8}),
			"1400000096f2317a0101000000090066702d61626331323308000000"},
		{"welcome/accept", appendWelcome(nil, welcomeFrame{}), "030000007c0dc5fc020000"},
		{"welcome/reject", appendWelcome(nil, welcomeFrame{Reject: "calibration fingerprint mismatch"}),
			"230000001e66ed3e02200063616c6962726174696f6e2066696e6765727072696e74206d69736d61746368"},
		{"batch", appendBatch(nil, testBatch()),
			"810000005d5e93ca0307000000000000000a006265686176696f72616c0200000000000000956479e17ffde53d333333333333d33f" +
				"000000000000f03f0000000000000000000000000000f03f0000000000003b400300000000000000000000800100000000000000" +
				"9c7500883ce4377e0200000000000000cdccccccccccec3f00000000000044c0"},
		{"result/ok", appendResult(nil, resultFrame{
			Dispatch: 9, Index: 4, DurNS: 12345, Status: resultOK,
			Met: engine.Metrics{
				EpsMul: 0.25, EpsLarge: 0.5, EpsSmall: math.Copysign(0, -1),
				EMul: 21e-15, SigmaMaxLSB: 0.04, SigmaMaxVolt: 5.04e-3, LSBVolt: 1e300,
			},
		}),
			"4e000000e1c8ddbf04090000000000000004000000393000000000000001000000000000d03f000000000000e03f0000000000000080" +
				"fca08f80d6a4173d7b14ae47e17aa43f4ddbbfb2d2a4743f9c7500883ce4377e"},
		{"result/err", appendResult(nil, resultFrame{Dispatch: 9, Index: 5, DurNS: 77, Status: resultErr, Err: "backend exploded"}),
			"28000000d05e12b4040900000000000000050000004d000000000000000210006261636b656e64206578706c6f646564"},
	} {
		if got := hex.EncodeToString(tc.frame); got != tc.want {
			t.Errorf("%s frame bytes changed:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
	long := appendResult(nil, resultFrame{Dispatch: 2, Index: 1, Status: resultErr, Err: strings.Repeat("x", maxStringLen+100)})
	sum := sha256.Sum256(long)
	if got, want := hex.EncodeToString(sum[:]), "bb6b99f3e57e93e2767b3e5b40168a149f637877a3b0fefd0500a33a0a6f6ceb"; len(long) != 4128 || got != want {
		t.Errorf("long error result: %d bytes, sha256 %s; want 4128 bytes, sha256 %s", len(long), got, want)
	}
}

func TestReadFrameMatchesDecodeFrame(t *testing.T) {
	frame := appendBatch(nil, testBatch())
	typ, payload, n, err := readFrame(bufio.NewReader(bytes.NewReader(frame)), maxFrameLen)
	if err != nil {
		t.Fatal(err)
	}
	dtyp, dpayload, dn, derr := decodeFrame(frame)
	if derr != nil || typ != dtyp || n != dn || !bytes.Equal(payload, dpayload) {
		t.Fatalf("readFrame disagrees with decodeFrame: typ %d vs %d, n %d vs %d", typ, dtyp, n, dn)
	}
}

// TestDecodeFrameTruncation: every proper prefix of a valid frame must
// decode to an error — the length prefix or the CRC catches the cut, never
// a partial decode.
func TestDecodeFrameTruncation(t *testing.T) {
	frame := appendBatch(nil, testBatch())
	for n := 0; n < len(frame); n++ {
		if _, _, _, err := decodeFrame(frame[:n]); err == nil {
			t.Fatalf("frame truncated to %d of %d bytes decoded without error", n, len(frame))
		}
	}
}

// TestDecodeFrameCorruption: flipping any single byte of a valid frame must
// either error or decode to exactly the original frame — never a silent
// mis-decode (the CRC covers the whole body including the type byte).
func TestDecodeFrameCorruption(t *testing.T) {
	frame := appendResult(nil, resultFrame{
		Dispatch: 3, Index: 1, DurNS: 99, Status: resultOK,
		Met: engine.Metrics{EpsMul: 0.25, EMul: 21e-15},
	})
	origTyp, origPayload, _, err := decodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0xFF
		typ, payload, _, err := decodeFrame(bad)
		if err != nil {
			continue
		}
		if typ != origTyp || !bytes.Equal(payload, origPayload) {
			t.Fatalf("byte %d corrupted: decoded to typ=%d payload=%x without error", i, typ, payload)
		}
	}
}

// TestDecodeStrictness: payload decoders reject trailing bytes and unknown
// statuses instead of ignoring them.
func TestDecodeStrictness(t *testing.T) {
	// Trailing byte after a well-formed hello payload.
	frame := appendHello(nil, helloFrame{Proto: 1, Fingerprint: "fp", Capacity: 2})
	_, payload, _, err := decodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeHello(append(append([]byte(nil), payload...), 0x00)); err == nil {
		t.Fatal("hello payload with a trailing byte decoded without error")
	}

	// Unknown result status.
	bad := appendResult(nil, resultFrame{Status: 99}) // zero words, bogus status
	_, payload, _, err = decodeFrame(bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeResult(payload); err == nil {
		t.Fatal("result with unknown status decoded without error")
	}

	// Batch whose cell count disagrees with its body length.
	b := testBatch()
	frame = appendBatch(nil, b)
	_, payload, _, err = decodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	short := append([]byte(nil), payload...)
	short = short[:len(short)-8]
	if _, err := decodeBatch(short); err == nil {
		t.Fatal("batch with a short cell array decoded without error")
	}
}

// FuzzDecodeFrame drives the frame and payload decoders with arbitrary
// bytes: they must never panic, and whatever decodes must re-encode to the
// same bytes it was decoded from (no mis-decode can survive a round trip).
func FuzzDecodeFrame(f *testing.F) {
	f.Add(appendHello(nil, helloFrame{Proto: protoVersion, Fingerprint: "fp", Capacity: 4}))
	f.Add(appendWelcome(nil, welcomeFrame{}))
	f.Add(appendWelcome(nil, welcomeFrame{Reject: "nope"}))
	f.Add(appendBatch(nil, testBatch()))
	f.Add(appendResult(nil, resultFrame{Dispatch: 1, Index: 2, Status: resultOK}))
	f.Add(appendResult(nil, resultFrame{Dispatch: 1, Index: 2, Status: resultErr, Err: "x"}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, n, err := decodeFrame(data)
		if err != nil {
			return
		}
		if n < codec.HeaderLen+1 || n > len(data) {
			t.Fatalf("consumed %d bytes of %d", n, len(data))
		}
		switch typ {
		case frameHello:
			if h, err := decodeHello(payload); err == nil {
				if got := appendHello(nil, h); !bytes.Equal(got, data[:n]) {
					t.Fatalf("hello re-encode mismatch: %x vs %x", got, data[:n])
				}
			}
		case frameWelcome:
			if w, err := decodeWelcome(payload); err == nil {
				if got := appendWelcome(nil, w); !bytes.Equal(got, data[:n]) {
					t.Fatalf("welcome re-encode mismatch: %x vs %x", got, data[:n])
				}
			}
		case frameBatch:
			if b, err := decodeBatch(payload); err == nil {
				if got := appendBatch(nil, b); !bytes.Equal(got, data[:n]) {
					t.Fatalf("batch re-encode mismatch: %x vs %x", got, data[:n])
				}
			}
		case frameResult:
			if r, err := decodeResult(payload); err == nil {
				if got := appendResult(nil, r); !bytes.Equal(got, data[:n]) {
					t.Fatalf("result re-encode mismatch: %x vs %x", got, data[:n])
				}
			}
		}
	})
}
