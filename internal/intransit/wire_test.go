package intransit

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"
)

func encodeFrame(t *testing.T, f Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := NewEncoder(&buf).Encode(f); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

func TestWireRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: FrameHello, Payload: []byte(`{"codec":"flate"}`)},
		{Type: FrameShard, Flags: FlagDelta | FlagCore, Rank: 3, Seq: 42, Field: 0,
			Payload: bytes.Repeat([]byte{0xab, 0x00, 0x7f}, 1000)},
		{Type: FrameSampleEnd, Seq: 42, Payload: []byte(`{"sim_time":1.5}`)},
		{Type: FrameSampleAck, Seq: 42, Payload: []byte(`{"frames":3}`)},
		{Type: FrameError, Payload: []byte("boom")},
		{Type: FrameHelloAck}, // empty payload
	}
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for _, f := range frames {
		if err := enc.Encode(f); err != nil {
			t.Fatalf("Encode(%v): %v", f.Type, err)
		}
	}
	dec := NewDecoder(&buf)
	for i, want := range frames {
		got, err := dec.Decode()
		if err != nil {
			t.Fatalf("Decode frame %d: %v", i, err)
		}
		if got.Type != want.Type || got.Flags != want.Flags || got.Rank != want.Rank ||
			got.Seq != want.Seq || got.Field != want.Field || !bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("frame %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, err := dec.Decode(); err != io.EOF {
		t.Errorf("after all frames: err = %v, want io.EOF", err)
	}
}

// TestWireRoundTripProperty drives random frames through an encoder and
// decoder pair and requires exact reproduction.
func TestWireRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var buf bytes.Buffer
	enc, dec := NewEncoder(&buf), NewDecoder(&buf)
	for i := 0; i < 200; i++ {
		payload := make([]byte, rng.Intn(4096))
		rng.Read(payload)
		want := Frame{
			Type:    FrameType(1 + rng.Intn(6)),
			Flags:   uint8(rng.Intn(4)),
			Rank:    rng.Uint32(),
			Seq:     rng.Uint64(),
			Field:   rng.Uint32(),
			Payload: payload,
		}
		if err := enc.Encode(want); err != nil {
			t.Fatalf("iter %d: Encode: %v", i, err)
		}
		got, err := dec.Decode()
		if err != nil {
			t.Fatalf("iter %d: Decode: %v", i, err)
		}
		if got.Type != want.Type || got.Flags != want.Flags || got.Rank != want.Rank ||
			got.Seq != want.Seq || got.Field != want.Field || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("iter %d: got %+v, want %+v", i, got, want)
		}
	}
}

// TestDecoderRejections is the adversarial table: every malformed input
// must be rejected with the right sentinel and never panic.
func TestDecoderRejections(t *testing.T) {
	good := encodeFrame(t, Frame{Type: FrameShard, Rank: 1, Seq: 2, Payload: []byte("payload")})
	cases := []struct {
		name     string
		data     func() []byte
		sentinel error
	}{
		{"bad magic", func() []byte {
			b := append([]byte(nil), good...)
			copy(b[0:4], "NOPE")
			return b
		}, ErrBadMagic},
		{"bad version", func() []byte {
			b := append([]byte(nil), good...)
			b[4] = 99
			return b
		}, ErrBadVersion},
		{"reserved byte set", func() []byte {
			b := append([]byte(nil), good...)
			b[7] = 1
			return b
		}, ErrBadVersion},
		{"bad type zero", func() []byte {
			b := append([]byte(nil), good...)
			b[5] = 0
			return b
		}, ErrBadType},
		{"bad type high", func() []byte {
			b := append([]byte(nil), good...)
			b[5] = 200
			return b
		}, ErrBadType},
		{"oversize length", func() []byte {
			b := append([]byte(nil), good...)
			binary.BigEndian.PutUint32(b[24:28], MaxPayload+1)
			return b
		}, ErrOversize},
		{"payload corruption", func() []byte {
			b := append([]byte(nil), good...)
			b[HeaderSize] ^= 0xff
			return b
		}, ErrChecksum},
		{"header corruption", func() []byte {
			b := append([]byte(nil), good...)
			binary.BigEndian.PutUint64(b[12:20], 999) // flip the seq
			return b
		}, ErrChecksum},
		{"crc corruption", func() []byte {
			b := append([]byte(nil), good...)
			b[28] ^= 0x01
			return b
		}, ErrChecksum},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewDecoder(bytes.NewReader(tc.data())).Decode()
			if !errors.Is(err, tc.sentinel) {
				t.Errorf("err = %v, want %v", err, tc.sentinel)
			}
		})
	}
}

func TestDecoderTruncation(t *testing.T) {
	good := encodeFrame(t, Frame{Type: FrameShard, Payload: []byte("some payload bytes")})
	// Every possible truncation point: mid-header and mid-payload must
	// both surface as errors, never hang or panic.
	for cut := 1; cut < len(good); cut++ {
		_, err := NewDecoder(bytes.NewReader(good[:cut])).Decode()
		if err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		if errors.Is(err, io.EOF) && err == io.EOF {
			t.Fatalf("truncation at %d returned bare io.EOF (means clean boundary)", cut)
		}
	}
	// A fully empty stream is the clean boundary.
	if _, err := NewDecoder(bytes.NewReader(nil)).Decode(); err != io.EOF {
		t.Errorf("empty stream: err = %v, want io.EOF", err)
	}
}

// headerWriter keeps the header of the one frame an Encoder writes through
// it and checks that the rest is want, without holding a second copy of a
// large payload.
type headerWriter struct {
	header []byte
	want   []byte
	ok     bool
}

func (w *headerWriter) Write(p []byte) (int, error) {
	w.header = append([]byte(nil), p[:HeaderSize]...)
	w.ok = bytes.Equal(p[HeaderSize:], w.want)
	return len(p), nil
}

// TestMaxPayloadBoundary: a payload of exactly MaxPayload bytes is a frame
// like any other, and one byte more is refused by the encoder and by the
// decoder alike.
func TestMaxPayloadBoundary(t *testing.T) {
	payload := make([]byte, MaxPayload)
	payload[0], payload[MaxPayload-1] = 0x5a, 0xa5
	w := &headerWriter{want: payload}
	if raceEnabled {
		t.Log("race detector: full-size round trip skipped")
	} else {
		if err := NewEncoder(w).Encode(Frame{Type: FrameShard, Rank: 2, Seq: 9, Payload: payload}); err != nil {
			t.Fatalf("Encode of a MaxPayload frame: %v", err)
		}
		if !w.ok {
			t.Fatal("encoded payload differs from the frame's")
		}
		got, err := NewDecoder(io.MultiReader(bytes.NewReader(w.header), bytes.NewReader(payload))).Decode()
		if err != nil {
			t.Fatalf("Decode of a MaxPayload frame: %v", err)
		}
		if got.Rank != 2 || got.Seq != 9 || !bytes.Equal(got.Payload, payload) {
			t.Fatalf("MaxPayload frame decoded as rank %d seq %d with %d payload bytes", got.Rank, got.Seq, len(got.Payload))
		}
	}

	if err := NewEncoder(io.Discard).Encode(Frame{Type: FrameShard, Payload: make([]byte, MaxPayload+1)}); !errors.Is(err, ErrOversize) {
		t.Errorf("Encode of MaxPayload+1 bytes: err = %v, want ErrOversize", err)
	}
	h := encodeFrame(t, Frame{Type: FrameShard, Payload: []byte("x")})[:HeaderSize]
	binary.BigEndian.PutUint32(h[24:28], MaxPayload+1)
	if _, err := NewDecoder(bytes.NewReader(h)).Decode(); !errors.Is(err, ErrOversize) {
		t.Errorf("Decode of a MaxPayload+1 header: err = %v, want ErrOversize", err)
	}
}

// TestWireSteadyStateAllocs pins the zero-allocation contract of the
// encode→decode hot path once buffers are warm.
func TestWireSteadyStateAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte{1, 2, 3, 4}, 2048)
	var buf bytes.Buffer
	enc, dec := NewEncoder(&buf), NewDecoder(&buf)
	f := Frame{Type: FrameShard, Rank: 1, Seq: 1, Payload: payload}
	// Warm the scratch buffers.
	if err := enc.Encode(f); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Decode(); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(100, func() {
		buf.Reset()
		if err := enc.Encode(f); err != nil {
			t.Fatal(err)
		}
		if _, err := dec.Decode(); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("encode+decode allocates %v/op in steady state, want 0", n)
	}
}
