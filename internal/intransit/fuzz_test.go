package intransit

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"image/color"
	"io"
	"runtime"
	"testing"
)

// allocated returns the bytes the process has heap-allocated so far.
func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// wireErr reports whether err is one of the frame decoder's typed outcomes:
// a rejection sentinel, a clean end of stream, or a cut mid-frame.
func wireErr(err error) bool {
	for _, want := range []error{io.EOF, io.ErrUnexpectedEOF,
		ErrBadMagic, ErrBadVersion, ErrBadType, ErrOversize, ErrChecksum} {
		if errors.Is(err, want) {
			return true
		}
	}
	return false
}

// FuzzDecoder feeds arbitrary bytes to the IVTR frame decoder. Every frame
// it accepts must re-encode to exactly the bytes it was read from, every
// rejection must be a typed error, nothing may panic, and decoding may not
// allocate more than a small multiple of the input. With fixCRC set the
// first frame's checksum is rewritten to match, so mutations also reach the
// checks behind it.
func FuzzDecoder(f *testing.F) {
	encode := func(fr Frame) []byte {
		var buf bytes.Buffer
		if err := NewEncoder(&buf).Encode(fr); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	good := encode(Frame{Type: FrameShard, Rank: 1, Seq: 2, Payload: []byte("payload")})
	seeds := [][]byte{
		good,
		append(encode(Frame{Type: FrameHello, Payload: []byte(`{"codec":"flate"}`)}),
			encode(Frame{Type: FrameHelloAck})...),
	}
	// TestDecoderRejections' inputs, plus a set reserved byte and a header
	// claiming the largest payload over a seven-byte body.
	for _, mutate := range []func(b []byte){
		func(b []byte) { copy(b[0:4], "NOPE") },
		func(b []byte) { b[4] = 99 },
		func(b []byte) { b[5] = 0 },
		func(b []byte) { b[5] = 200 },
		func(b []byte) { b[7] = 1 },
		func(b []byte) { binary.BigEndian.PutUint32(b[24:28], MaxPayload+1) },
		func(b []byte) { binary.BigEndian.PutUint32(b[24:28], MaxPayload) },
		func(b []byte) { b[HeaderSize] ^= 0xff },
		func(b []byte) { binary.BigEndian.PutUint64(b[12:20], 999) },
		func(b []byte) { b[28] ^= 0x01 },
	} {
		b := append([]byte(nil), good...)
		mutate(b)
		seeds = append(seeds, b)
	}
	// TestDecoderTruncation's cuts: empty, mid-header, header only,
	// mid-payload.
	for _, cut := range []int{0, 1, HeaderSize - 1, HeaderSize, len(good) - 1} {
		seeds = append(seeds, good[:cut])
	}
	for _, s := range seeds {
		f.Add(s, false)
		f.Add(s, true)
	}

	f.Fuzz(func(t *testing.T, data []byte, fixCRC bool) {
		if fixCRC && len(data) >= HeaderSize {
			if n := int64(binary.BigEndian.Uint32(data[24:28])); n <= int64(len(data)-HeaderSize) {
				data = append([]byte(nil), data...)
				crc := crc32.Update(0, castagnoli, data[0:28])
				crc = crc32.Update(crc, castagnoli, data[HeaderSize:HeaderSize+int(n)])
				binary.BigEndian.PutUint32(data[28:32], crc)
			}
		}
		dec := NewDecoder(bytes.NewReader(data))
		var out bytes.Buffer
		enc := NewEncoder(&out)
		rest := data
		var grown uint64
		for {
			before := allocated()
			fr, err := dec.Decode()
			grown += allocated() - before
			if err != nil {
				if !wireErr(err) {
					t.Fatalf("untyped decode error: %v", err)
				}
				break
			}
			out.Reset()
			if err := enc.Encode(fr); err != nil {
				t.Fatalf("accepted %v frame does not re-encode: %v", fr.Type, err)
			}
			if n := out.Len(); n > len(rest) || !bytes.Equal(out.Bytes(), rest[:n]) {
				t.Fatalf("accepted %v frame (seq %d, %d payload bytes) re-encodes to other bytes",
					fr.Type, fr.Seq, len(fr.Payload))
			}
			rest = rest[out.Len():]
		}
		if limit := 64<<10 + 4*uint64(len(data)); grown > limit {
			t.Fatalf("decoding %d input bytes allocated %d, bound %d", len(data), grown, limit)
		}
	})
}

// FuzzShardDecode feeds an arbitrary payload to the shard decoder for a rank
// of n cells, through the raw or the flate codec: once absolute and, when
// flags asks for a delta, once more against that first record. A record it
// accepts must come back unchanged through a fresh encoder and decoder, and
// under the raw codec an accepted absolute payload must be exactly what the
// encoder writes for it. A rejection must be ErrBadShard, nothing may panic,
// and decoding may not allocate more than a bound set by the payload and
// record sizes.
func FuzzShardDecode(f *testing.F) {
	cells := gatherIdentity(100)
	colors, core := sampleTables(len(cells), 0)
	n := uint16(len(cells))
	for _, name := range CodecNames() {
		codec, _ := NewCodec(name)
		se := newShardEncoder(codec)
		raw := name == "raw"
		add := func(flags uint8, cells uint16, payload []byte) {
			f.Add(raw, flags, cells, append([]byte(nil), payload...))
		}
		p, flags, _ := se.encode(0, 0, cells, colors, nil)
		add(flags, n, p)
		add(flags|0x80, n, p) // a flag bit the protocol does not define
		// TestShardDecoderRejections' inputs: a delta shard, and records one
		// cell short and one cell long for the rank.
		p, flags, _ = se.encode(0, 0, cells, colors, nil)
		add(flags, n, p)
		add(flags&^FlagDelta, n+1, p)
		se = newShardEncoder(codec)
		p, flags, _ = se.encode(0, 0, cells, colors, core)
		add(flags, n, p)
		add(flags, n-1, p)
		if raw {
			// A core mask with a bit set past the last of its 100 cells.
			padded := append([]byte(nil), p...)
			padded[len(padded)-1] |= 0x80
			add(flags, n, padded)
		}
	}

	f.Fuzz(func(t *testing.T, raw bool, flags uint8, n uint16, payload []byte) {
		name := DefaultCodec
		if raw {
			name = "raw"
		}
		codec, _ := NewCodec(name)
		sd := newShardDecoder(codec)
		cells := int(n)
		limit := uint64(256<<10 + 4*(len(payload)+3*cells+maskLen(cells)))
		decode := func(flags uint8) (shardView, error) {
			before := allocated()
			v, err := sd.decode(0, 0, flags, payload, cells)
			if grown := allocated() - before; grown > limit {
				t.Fatalf("decoding a %d-byte payload for %d cells allocated %d, bound %d",
					len(payload), cells, grown, limit)
			}
			if err != nil && !errors.Is(err, ErrBadShard) {
				t.Fatalf("untyped shard error: %v", err)
			}
			return v, err
		}
		v, err := decode(flags &^ FlagDelta)
		if err != nil {
			return
		}
		checkShardRoundTrip(t, name, v, flags&^FlagDelta, payload, cells)
		if flags&FlagDelta == 0 {
			return
		}
		if v, err = decode(flags); err == nil {
			checkShardRoundTrip(t, name, v, flags, payload, cells)
		}
	})
}

// checkShardRoundTrip re-encodes an accepted shard record through a fresh
// encoder, decodes that with a fresh decoder, and requires the same record
// back; a raw absolute payload must also equal the re-encoded one.
func checkShardRoundTrip(t *testing.T, codecName string, v shardView, flags uint8, payload []byte, n int) {
	t.Helper()
	colors := make([]color.RGBA, n)
	for i := range colors {
		colors[i] = color.RGBA{R: v.r[i], G: v.g[i], B: v.b[i], A: 255}
	}
	var core []bool
	if flags&FlagCore != 0 {
		core = make([]bool, n)
		for i := range core {
			core[i] = v.coreBit(i)
		}
	}
	codecE, _ := NewCodec(codecName)
	codecD, _ := NewCodec(codecName)
	p2, flags2, _ := newShardEncoder(codecE).encode(0, 0, gatherIdentity(n), colors, core)
	if flags2 != flags&^FlagDelta {
		t.Fatalf("accepted shard with flags %#x re-encodes with flags %#x", flags, flags2)
	}
	if codecName == "raw" && flags&FlagDelta == 0 && !bytes.Equal(p2, payload) {
		t.Fatalf("accepted raw shard is not the encoder's bytes for its record")
	}
	v2, err := newShardDecoder(codecD).decode(0, 0, flags2, p2, n)
	if err != nil {
		t.Fatalf("re-encoded shard rejected: %v", err)
	}
	if !bytes.Equal(v2.r, v.r) || !bytes.Equal(v2.g, v.g) || !bytes.Equal(v2.b, v.b) || !bytes.Equal(v2.core, v.core) {
		t.Fatalf("shard record changed through a re-encode")
	}
}
