package transport

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
	"testing/iotest"

	"crew/internal/binenc"
	"crew/internal/cerrors"
	"crew/internal/expr"
	"crew/internal/metrics"
)

// wirePayload, wirePtrPayload and wireDataPayload are the test payload types
// registered for the wire codec tests: a string and an integer, an integer
// alone, and data items.
type wirePayload struct {
	A string
	B int
}

func (p *wirePayload) Walk(w *binenc.Walker) {
	w.String(&p.A)
	w.Int(&p.B)
}

type wirePtrPayload struct {
	N int
}

func (p *wirePtrPayload) Walk(w *binenc.Walker) { w.Int(&p.N) }

type wireDataPayload struct {
	D map[string]expr.Value
}

func (p *wireDataPayload) Walk(w *binenc.Walker) { expr.WalkValues(w, &p.D) }

func init() {
	RegisterPayload[wirePayload]()
	RegisterPayload[wirePtrPayload]()
	RegisterPayload[wireDataPayload]()
	RegisterKinds("k", "ping", "pong")
}

// encodeBody and decodeBody run the message codec with a throwaway walker.
func encodeBody(m Message) ([]byte, error) { return appendMessage(nil, m, new(binenc.Walker)) }

func decodeBody(body []byte) (Message, error) { return decodeMessage(new(binenc.Walker), body) }

func mustEncode(t *testing.T, m Message) []byte {
	t.Helper()
	body, err := encodeBody(m)
	if err != nil {
		t.Fatalf("appendMessage: %v", err)
	}
	return body
}

func TestMessageRoundTrip(t *testing.T) {
	cases := []Message{
		{From: "a", To: "b", Kind: "StepExecute", Mechanism: metrics.Normal, Payload: &wirePayload{A: "x", B: 7}},
		{From: "a", To: "b", Kind: "Ptr", Mechanism: metrics.Coordination, Payload: &wirePtrPayload{N: 3}},
		{From: "", To: "b", Kind: "", Mechanism: metrics.Normal, Payload: nil},
	}
	for _, want := range cases {
		got, err := decodeBody(mustEncode(t, want))
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if got.From != want.From || got.To != want.To || got.Kind != want.Kind || got.Mechanism != want.Mechanism {
			t.Errorf("header mismatch: got %+v want %+v", got, want)
		}
		switch p := want.Payload.(type) {
		case nil:
			if got.Payload != nil {
				t.Errorf("payload = %v, want nil", got.Payload)
			}
		case *wirePtrPayload:
			gp, ok := got.Payload.(*wirePtrPayload)
			if !ok || gp.N != p.N {
				t.Errorf("payload = %#v, want %#v", got.Payload, p)
			}
		case *wirePayload:
			gp, ok := got.Payload.(*wirePayload)
			if !ok || *gp != *p {
				t.Errorf("payload = %#v, want %#v", got.Payload, p)
			}
		}
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	env := NewEnvelope()
	for i := 0; i < 3; i++ {
		env.Msgs = append(env.Msgs, Message{From: "a", To: "b", Kind: "K", Payload: &wirePayload{B: i}})
	}
	wrapper := Message{From: "a", To: "b", Kind: KindEnvelope, Payload: env}
	got, err := decodeBody(mustEncode(t, wrapper))
	if err != nil {
		t.Fatal(err)
	}
	genv, ok := got.Payload.(*Envelope)
	if !ok || got.Kind != KindEnvelope {
		t.Fatalf("decoded wrapper = %+v", got)
	}
	if len(genv.Msgs) != 3 {
		t.Fatalf("decoded %d logical messages, want 3", len(genv.Msgs))
	}
	for i, m := range genv.Msgs {
		if m.Payload.(*wirePayload).B != i {
			t.Errorf("logical message %d payload = %+v", i, m.Payload)
		}
	}
	genv.Release()
	env.Release()
}

func TestEncodeRejectsUnregisteredPayload(t *testing.T) {
	type secret struct{ X int }
	_, err := encodeBody(Message{Payload: secret{}})
	if cerrors.CodeOf(err) != cerrors.CodeFrameMalformed {
		t.Fatalf("CodeOf = %q, want CodeFrameMalformed (err=%v)", cerrors.CodeOf(err), err)
	}
	if cerrors.PhaseOf(err) != cerrors.PhaseEncode {
		t.Fatalf("PhaseOf = %q, want PhaseEncode", cerrors.PhaseOf(err))
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	valid := mustEncode(t, Message{From: "a", To: "b", Kind: "K", Payload: &wirePayload{B: 1}})
	cases := []struct {
		name string
		body []byte
	}{
		{"empty body", nil},
		{"bad flag", []byte{9}},
		{"truncated string", []byte{0, 200}},
		{"trailing bytes", append(append([]byte{}, valid...), 0xFF)},
		{"empty envelope", []byte{1, 0}},
		{"bad mechanism", func() []byte {
			b := []byte{0}
			b = binenc.AppendString(b, "a")
			b = binenc.AppendString(b, "b")
			b = binenc.AppendString(b, "K")
			return append(b, 100) // mechanism 100 >= len(metrics.Mechanisms)
		}()},
		{"unknown payload type", func() []byte {
			b := []byte{0}
			b = binenc.AppendString(b, "a")
			b = binenc.AppendString(b, "b")
			b = binenc.AppendString(b, "K")
			b = append(b, 0) // mechanism
			b = binenc.AppendString(b, "nosuch.Type")
			return append(b, 0)
		}()},
		{"payload longer than body", func() []byte {
			b := []byte{0}
			b = binenc.AppendString(b, "a")
			b = binenc.AppendString(b, "b")
			b = binenc.AppendString(b, "K")
			b = append(b, 0)
			b = binenc.AppendString(b, "transport.wirePayload")
			return append(b, 200) // the payload's string declares 200 bytes, none follow
		}()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := decodeBody(c.body)
			if err == nil {
				t.Fatal("decode accepted malformed body")
			}
			// A complete frame whose body does not parse is malformed,
			// whether it ends early or runs long.
			if got := cerrors.CodeOf(err); got != cerrors.CodeFrameMalformed {
				t.Errorf("CodeOf = %q, want %q (err=%v)", got, cerrors.CodeFrameMalformed, err)
			}
			if !errors.Is(err, cerrors.ErrWire) {
				t.Errorf("error not classified under ErrWire: %v", err)
			}
		})
	}
}

func TestReadFrameLimits(t *testing.T) {
	// Oversized length prefix is rejected before any allocation.
	over := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	_, _, err := newFrameReader(bytes.NewReader(over), 0).next()
	if cerrors.CodeOf(err) != cerrors.CodeFrameOversized {
		t.Errorf("oversized: CodeOf = %q (err=%v)", cerrors.CodeOf(err), err)
	}
	// Zero-length frame (no type byte) is malformed.
	zero := []byte{0, 0, 0, 0}
	_, _, err = newFrameReader(bytes.NewReader(zero), 0).next()
	if cerrors.CodeOf(err) != cerrors.CodeFrameMalformed {
		t.Errorf("zero length: CodeOf = %q (err=%v)", cerrors.CodeOf(err), err)
	}
	// A body shorter than declared is truncated.
	trunc := appendFrame(nil, frameMsg, []byte("abc"))[:6]
	_, _, err = newFrameReader(bytes.NewReader(trunc), 0).next()
	if cerrors.CodeOf(err) != cerrors.CodeFrameTruncated {
		t.Errorf("truncated: CodeOf = %q (err=%v)", cerrors.CodeOf(err), err)
	}
	// Clean close at a frame boundary is bare io.EOF, not a wire error.
	_, _, err = newFrameReader(bytes.NewReader(nil), 0).next()
	if err != io.EOF {
		t.Errorf("clean EOF: err = %v, want io.EOF", err)
	}
	// And a valid frame round-trips through appendFrame and a frameReader.
	framed := appendFrame(nil, frameHello, []byte("node-1"))
	typ, body, err := newFrameReader(bytes.NewReader(framed), 0).next()
	if err != nil || typ != frameHello || string(body) != "node-1" {
		t.Errorf("round trip: typ=%d body=%q err=%v", typ, body, err)
	}
}

// TestFrameReaderBursts feeds a run of frames of mixed sizes, one of them
// larger than the reader's buffer, through readers that return the stream in
// one piece, byte by byte and in odd chunks: the same frames come out whatever
// the read boundaries, and a read that holds several frames is not repeated.
func TestFrameReaderBursts(t *testing.T) {
	bodies := [][]byte{nil, []byte("a"), bytes.Repeat([]byte{7}, 300), []byte("tail"), bytes.Repeat([]byte{9}, 40)}
	var stream []byte
	for i, b := range bodies {
		stream = appendFrame(stream, byte(i+1), b)
	}
	readers := map[string]func() io.Reader{
		"whole":       func() io.Reader { return bytes.NewReader(stream) },
		"byte a time": func() io.Reader { return iotest.OneByteReader(bytes.NewReader(stream)) },
		"chunks of 7": func() io.Reader { return &chunkReader{r: bytes.NewReader(stream), n: 7} },
	}
	for name, mk := range readers {
		counted := &chunkReader{r: mk(), n: len(stream)}
		fr := newFrameReader(counted, 64)
		for i, want := range bodies {
			typ, body, err := fr.next()
			if err != nil || typ != byte(i+1) || !bytes.Equal(body, want) {
				t.Fatalf("%s: frame %d = type %d, %d bytes, %v; want type %d, %d bytes", name, i, typ, len(body), err, i+1, len(want))
			}
		}
		if _, _, err := fr.next(); err != io.EOF {
			t.Fatalf("%s: after the last frame: %v, want io.EOF", name, err)
		}
		// 64 bytes hold the first two frames and the third's header; the
		// third frame needs a second read, the rest and the EOF a third and
		// fourth.
		if name == "whole" && counted.reads > 4 {
			t.Errorf("%s: %d reads for %d frames", name, counted.reads, len(bodies))
		}
	}
}

// chunkReader returns at most n bytes per Read and counts the calls.
type chunkReader struct {
	r     io.Reader
	n     int
	reads int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	c.reads++
	if len(p) > c.n {
		p = p[:c.n]
	}
	return c.r.Read(p)
}

func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(mustEncodeFuzz(Message{From: "a", To: "b", Kind: "K", Payload: &wirePayload{A: "x", B: 1}}))
	f.Add(mustEncodeFuzz(Message{From: "a", To: "b", Kind: "Nil"}))
	env := NewEnvelope()
	env.Msgs = append(env.Msgs, Message{From: "a", To: "b", Kind: "E1"}, Message{From: "a", To: "b", Kind: "E2", Payload: &wirePtrPayload{N: 9}})
	f.Add(mustEncodeFuzz(Message{From: "a", To: "b", Kind: KindEnvelope, Payload: env}))
	env.Release()
	f.Add([]byte{})
	f.Add([]byte{1, 0xFF})
	// Binary payloads at the edges of their primitives: a negative and a
	// multi-byte varint, a multi-byte string, a large integer.
	f.Add(mustEncodeFuzz(Message{From: "agent01", To: "agent02", Kind: "K", Mechanism: metrics.Coordination, Payload: &wirePayload{A: "naïve ✓", B: -1 << 40}}))
	f.Add(mustEncodeFuzz(Message{From: "a", To: "b", Kind: "Int", Payload: &wirePtrPayload{N: 1 << 62}}))
	// A header the hub accepts in front of a payload cut short.
	f.Add(mustEncodeFuzz(Message{From: "a", To: "b", Kind: "k", Payload: &wirePayload{A: "abcdef", B: 1}})[:22])
	// DONE bodies: completions at the edges of their id, one cut short.
	done := appendCompletion(appendCompletion(nil, Completion{"WF01", 1, 1}), Completion{"WF02", 1000, 2})
	f.Add(done)
	f.Add(appendCompletion(nil, Completion{"naïve", -1 << 40, 255}))
	f.Add(done[:len(done)-2])
	// Data items: whole numbers as varints at the edges of their range, a
	// fraction, a negative zero, and the same message cut short.
	data := mustEncodeFuzz(Message{From: "a", To: "b", Kind: "k", Payload: &wireDataPayload{D: map[string]expr.Value{
		"a": expr.Num(0), "b": expr.Num(-1), "c": expr.Num(900000), "d": expr.Num(1 << 53), "e": expr.Num(-1 << 53),
		"f": expr.Num(1<<53 + 2), "g": expr.Num(0.5), "h": expr.Num(math.Copysign(0, -1)),
	}}})
	f.Add(data)
	f.Add(data[:len(data)-1])
	f.Fuzz(func(t *testing.T, body []byte) {
		// What reads as a DONE body re-encodes to a fixed point, and what
		// does not is a classified wire error.
		var d []Completion
		if err := readCompletions(binenc.NewReader(nil), body, func(c Completion) { d = append(d, c) }); err != nil {
			if !errors.Is(err, cerrors.ErrWire) {
				t.Fatalf("unclassified DONE error: %v", err)
			}
		} else {
			var re []Completion
			readCompletions(binenc.NewReader(nil), appendCompletions(d), func(c Completion) { re = append(re, c) })
			if !bytes.Equal(appendCompletions(re), appendCompletions(d)) {
				t.Fatalf("DONE entries not stable: %v then %v", d, re)
			}
		}
		// The hub forwards a single message whose header reads as the bytes
		// it arrived in, and whatever an endpoint decodes, the hub's header
		// read takes too, to the same header.
		var w binenc.Walker
		w.Decode(body)
		single := w.Reader().Byte() == 0
		hd, _, herr := readHeader(&w)
		if herr == nil {
			herr = w.Reader().Err()
		}
		if single && herr == nil {
			if got, want := newRawFrame(body).bytes(), appendFrame(nil, frameMsg, body); !bytes.Equal(got, want) {
				t.Fatalf("forwarded frame differs from the frame read:\n got=%x\nwant=%x", got, want)
			}
		}
		m, err := decodeBody(body)
		if err == nil && single && (herr != nil ||
			string(hd.from) != m.From || string(hd.to) != m.To || string(hd.kind) != m.Kind || hd.mech != m.Mechanism) {
			t.Fatalf("the header read (%q %q %q %v, %v) disagrees with the decode %+v", hd.from, hd.to, hd.kind, hd.mech, herr, m)
		}
		if err != nil {
			// Every rejection must be a classified wire error.
			if !errors.Is(err, cerrors.ErrWire) {
				t.Fatalf("unclassified decode error: %v", err)
			}
			return
		}
		// Whatever decodes must re-encode and decode to the same bytes-level
		// message (encode is canonical, so enc(dec(b)) is a fixed point).
		re, err := encodeBody(m)
		if err != nil {
			t.Fatalf("re-encode of decoded message failed: %v", err)
		}
		m2, err := decodeBody(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		re2, err := encodeBody(m2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatalf("canonical encoding not stable:\n first=%x\nsecond=%x", re, re2)
		}
		if env, ok := m.Payload.(*Envelope); ok {
			env.Release()
		}
		if env, ok := m2.Payload.(*Envelope); ok {
			env.Release()
		}
	})
}

// appendCompletions writes a DONE body as the hub does.
func appendCompletions(d []Completion) []byte {
	var out []byte
	for _, c := range d {
		out = appendCompletion(out, c)
	}
	return out
}

func mustEncodeFuzz(m Message) []byte {
	body, err := encodeBody(m)
	if err != nil {
		panic(err)
	}
	return body
}
