package transport_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"crew/internal/central" // engines and agents register their payloads
	"crew/internal/cerrors"
	"crew/internal/coord"
	"crew/internal/distributed"
	"crew/internal/expr"
	"crew/internal/metrics"
	"crew/internal/model"
	"crew/internal/transport"
)

// gen fills values of the registered payload types from a seed: nil, empty
// and populated maps and slices, nil and non-nil pointers, every expr.Value
// kind, integers at both ends of their range.
type gen struct{ *rand.Rand }

var (
	valueType     = reflect.TypeOf(expr.Value{})
	mechanismType = reflect.TypeOf(metrics.Normal)
	opType        = reflect.TypeOf(coord.Check)
)

func (g gen) str() string {
	words := []string{"", "a", "WF01", "S2.O1", "agent07", "naïve ✓", "with \"quotes\" and \\", "x\x00y"}
	return words[g.Intn(len(words))]
}

func (g gen) value() expr.Value {
	switch g.Intn(4) {
	case 0:
		return expr.Null()
	case 1:
		nums := []float64{0, 1, -1, 0.1, -2.5e-7, 1e300, math.MaxInt64, math.SmallestNonzeroFloat64}
		return expr.Num(nums[g.Intn(len(nums))])
	case 2:
		return expr.Str(g.str())
	default:
		return expr.Bool(g.Intn(2) == 0)
	}
}

// fill sets v, which must be settable. A top-level pointer is never nil (a
// nil pointer is not a payload; Message.Payload is nil then).
func (g gen) fill(v reflect.Value, top bool) {
	switch {
	case v.Type() == valueType:
		v.Set(reflect.ValueOf(g.value()))
		return
	case v.Type() == mechanismType:
		v.SetInt(int64(g.Intn(len(metrics.Mechanisms))))
		return
	case v.Type() == opType:
		v.SetUint(uint64(g.Intn(int(coord.Forget) + 1)))
		return
	}
	switch v.Kind() {
	case reflect.String:
		v.SetString(g.str())
	case reflect.Bool:
		v.SetBool(g.Intn(2) == 0)
	case reflect.Int, reflect.Int64:
		ints := []int64{0, 1, -1, 63, 64, -65, 1 << 40, math.MaxInt64, math.MinInt64}
		v.SetInt(ints[g.Intn(len(ints))])
	case reflect.Pointer:
		if top || g.Intn(3) > 0 {
			v.Set(reflect.New(v.Type().Elem()))
			g.fill(v.Elem(), false)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			g.fill(v.Field(i), false)
		}
	case reflect.Slice:
		switch n := g.Intn(5); n {
		case 0: // nil
		case 1:
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		default:
			v.Set(reflect.MakeSlice(v.Type(), n, n))
			for i := 0; i < n; i++ {
				g.fill(v.Index(i), false)
			}
		}
	case reflect.Map:
		switch n := g.Intn(5); n {
		case 0: // nil
		case 1:
			v.Set(reflect.MakeMap(v.Type()))
		default:
			v.Set(reflect.MakeMap(v.Type()))
			for i := 0; i < 2*n; i++ {
				k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
				g.fill(k, false)
				g.fill(e, false)
				v.SetMapIndex(k, e)
			}
		}
	default:
		panic("payload generator: no case for " + v.Type().String() + ": teach gen.fill the new field kind")
	}
}

// make returns a filled value of type t as a Message.Payload would hold it.
func (g gen) make(t reflect.Type) any {
	v := reflect.New(t).Elem()
	g.fill(v, true)
	return v.Interface()
}

// normalized returns a copy of p with every empty map and slice set to nil:
// the wire does not tell the two apart (frame.go), JSON does.
func normalized(p any) any {
	v := reflect.New(reflect.TypeOf(p)).Elem()
	v.Set(reflect.ValueOf(p))
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if !v.IsNil() {
				// Copy the pointee: the caller's value must stay as generated.
				c := reflect.New(v.Type().Elem())
				c.Elem().Set(v.Elem())
				v.Set(c)
				walk(c.Elem())
			}
		case reflect.Struct:
			if v.Type() == valueType {
				return
			}
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Map, reflect.Slice:
			if v.Len() == 0 {
				v.Set(reflect.Zero(v.Type()))
			}
		}
	}
	walk(v)
	return v.Interface()
}

// TestPayloadCodecMatchesJSON is the oracle for the binary payload codecs:
// every registered type, whoever registered it, round-trips a generated value
// through its walk, encoding and decoding, to what a JSON round trip of the
// same value gives — the wire's payload format until the binary one replaced
// it.
func TestPayloadCodecMatchesJSON(t *testing.T) {
	// The program registers 25 types (central 4, distributed 17, and the four
	// of the coordination protocol, which parallel adds nothing to); this
	// package's own tests register three of their own.
	codecs, program := transport.RegisteredPayloads(), map[string]bool{}
	for _, c := range codecs {
		if !strings.Contains(c.Name, "transport.") {
			program[c.Name] = true
		}
	}
	if len(program) != 25 {
		t.Fatalf("%d payload types registered by the program, want 25: %v", len(program), program)
	}
	for _, name := range []string{"coord.Request", "coord.Resolve", "coord.Inject", "coord.Order"} {
		if !program[name] {
			t.Fatalf("%s is not registered", name)
		}
	}
	for _, c := range codecs {
		g := gen{rand.New(rand.NewSource(18))}
		for i := 0; i < 300; i++ {
			p := g.make(c.Type)

			enc := c.Append(nil, p)
			got, err := c.Decode(enc)
			if err != nil {
				t.Fatalf("%s: decode of own encoding of %+v: %v", c.Name, p, err)
			}
			if again := c.Append(nil, p); !bytes.Equal(enc, again) {
				t.Fatalf("%s: two encodings of %+v differ", c.Name, p)
			}

			js, err := json.Marshal(p)
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			want := reflect.New(c.Type)
			if err := json.Unmarshal(js, want.Interface()); err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			if g, w := normalized(got), normalized(want.Elem().Interface()); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: binary and JSON round trips disagree\n  sent   %+v\n  binary %+v\n  json   %+v", c.Name, p, g, w)
			}
		}
	}
}

// sample returns a generated payload of the named type that satisfies ok.
func sample(t *testing.T, name string, ok func(enc []byte) bool) any {
	t.Helper()
	for _, c := range transport.RegisteredPayloads() {
		if c.Name != name {
			continue
		}
		g := gen{rand.New(rand.NewSource(7))}
		for i := 0; i < 1000; i++ {
			p := g.make(c.Type)
			if ok(c.Append(nil, p)) {
				return p
			}
		}
	}
	t.Fatalf("no sample of %s", name)
	return nil
}

// TestDecodeSurvivesDamage cuts an encoded stepExecute message and an encoded
// envelope at every byte and flips every byte of each: a cut is always a
// malformed frame, a flip is either that or some other valid message, and
// neither panics nor allocates beyond what the input's own length justifies
// (counts are checked against the remaining input before anything is sized
// from them).
func TestDecodeSurvivesDamage(t *testing.T) {
	big := func(enc []byte) bool { return len(enc) > 150 } // a packet with data items and events
	step := transport.Message{From: "agent01", To: "agent02", Kind: "StepExecute", Mechanism: metrics.Failure,
		Payload: sample(t, "distributed.stepExecute", big)}
	env := transport.NewEnvelope()
	env.Msgs = append(env.Msgs, step,
		transport.Message{From: "agent01", To: "agent02", Kind: "Nil"},
		transport.Message{From: "agent01", To: "agent02", Kind: "StepCompleted",
			Payload: sample(t, "distributed.stepCompleted", big)})
	defer env.Release()

	for name, m := range map[string]transport.Message{
		"stepExecute": step,
		"envelope":    {From: "agent01", To: "agent02", Kind: transport.KindEnvelope, Payload: env},
	} {
		body, err := transport.EncodeMessage(m)
		if err != nil {
			t.Fatal(err)
		}
		decode := func(what string, in []byte, mustFail bool) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got, err := transport.DecodeMessage(in)
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(64*len(body)+4096) {
				t.Errorf("%s %s: decode allocated %d bytes for %d of input", name, what, grew, len(in))
			}
			switch {
			case err == nil && mustFail:
				t.Errorf("%s %s: decoded", name, what)
			case err != nil && (!errors.Is(err, cerrors.ErrWire) || cerrors.CodeOf(err) != cerrors.CodeFrameMalformed):
				t.Errorf("%s %s: error %v is not a malformed-frame wire error", name, what, err)
			}
			if e, ok := got.Payload.(*transport.Envelope); ok {
				e.Release()
			}
		}
		decode("intact", body, false)
		for cut := 0; cut < len(body); cut++ {
			decode("cut", body[:cut], true)
		}
		damaged := make([]byte, len(body))
		for i := range body {
			for _, mask := range []byte{0xFF, 0x80, 0x01} {
				copy(damaged, body)
				damaged[i] ^= mask
				decode("flip", damaged, false)
			}
		}
	}
}

// TestHubForwardsFramesAsTheyArrived sends generated values of every
// registered payload type from one child to another through a hub. The hub
// reads only the header of such a frame; what it writes to the receiver must
// be the frame a decode and re-encode would have given, live and again when
// the receiver reconnects and the unacknowledged tail is replayed.
func TestHubForwardsFramesAsTheyArrived(t *testing.T) {
	n := transport.NewNetwork(transport.NetworkConfig{})
	defer n.Close()
	hub, err := transport.NewRemoteHub(n, "unix", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"agent01", "agent02"} {
		if err := hub.RegisterRemote(name); err != nil {
			t.Fatal(err)
		}
	}
	src, err := transport.DialRaw("unix", hub.Addr(), "agent01")
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst, err := transport.DialRaw("unix", hub.Addr(), "agent02")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { dst.Close() }()

	const perType = 20
	var sent, want [][]byte
	for _, c := range transport.RegisteredPayloads() {
		g := gen{rand.New(rand.NewSource(31))}
		for i := 0; i < perType; i++ {
			frame, err := transport.EncodeFrame(transport.Message{From: "agent01", To: "agent02", Kind: "StepExecute",
				Mechanism: metrics.Mechanisms[g.Intn(len(metrics.Mechanisms))], Payload: g.make(c.Type)})
			if err != nil {
				t.Fatal(err)
			}
			re, err := transport.Reframe(frame)
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			sent, want = append(sent, frame), append(want, re)
		}
	}
	receive := func(what string, i int) {
		t.Helper()
		got, err := dst.NextMsg()
		if err != nil {
			t.Fatalf("%s frame %d: %v", what, i, err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("%s frame %d: the hub wrote\n %x\nfor the re-encoded\n %x", what, i, got, want[i])
		}
	}
	// Live: every frame is forwarded and acknowledged but the last perType.
	unacked := len(sent) - perType
	for i, frame := range sent {
		if err := src.Write(frame); err != nil {
			t.Fatal(err)
		}
		receive("live", i)
		if i < unacked {
			if err := dst.Ack(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Replay: a new connection for agent02 gets the unacknowledged tail, once
	// the hub has taken every ACK (one still in the old connection is lost,
	// and its message replayed too: delivery is at least once).
	for deadline := time.Now().Add(10 * time.Second); n.InFlight() != perType; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d messages in flight, want the %d unacknowledged", n.InFlight(), perType)
		}
	}
	dst.Close()
	if dst, err = transport.DialRaw("unix", hub.Addr(), "agent02"); err != nil {
		t.Fatal(err)
	}
	for i := unacked; i < len(sent); i++ {
		receive("replayed", i)
		if err := dst.Ack(); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.Quiesce(ctx); err != nil {
		t.Fatalf("quiesce after every frame was acknowledged: %v", err)
	}
}

// TestEveryRegisteredPayloadIsHandled sends a zero value of every payload type
// the program registers, as a peer could put it on the wire, to every node of
// a live deployment of the registering package (the coordination protocol's
// to both): engines and agents, agents. Each must be taken by a handler arm
// at one node at least (a node it is not for logs "unhandled payload"), and
// none may panic its receiver. A newly registered type is covered without
// editing this test.
func TestEveryRegisteredPayloadIsHandled(t *testing.T) {
	var mu sync.Mutex
	var logged []string
	logf := func(format string, args ...any) {
		mu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	lib, reg := model.NewLibrary(), model.NewRegistry()
	dist, err := distributed.NewSystem(distributed.SystemConfig{Library: lib, Programs: reg, Agents: []string{"a1", "a2", "a3"}, Logf: logf})
	if err != nil {
		t.Fatal(err)
	}
	defer dist.Close()
	cent, err := central.NewSystem(central.SystemConfig{Library: lib, Programs: reg, Logf: logf})
	if err != nil {
		t.Fatal(err)
	}
	defer cent.Close()
	deployments := map[string][]*transport.Network{
		"distributed": {dist.Network()},
		"central":     {cent.Network()},
		"coord":       {dist.Network(), cent.Network()},
	}

	sent := map[string]int{}
	for _, c := range transport.RegisteredPayloads() {
		pkg, _, _ := strings.Cut(c.Name, ".")
		if pkg == "transport" {
			continue // this package's own test types
		}
		if c.Name == "distributed.WorkflowDone" {
			continue // handled by the multi-process front end (package mproc), which no agent is
		}
		nets, ok := deployments[pkg]
		if !ok {
			t.Fatalf("%s is registered by a package this test deploys no node of", c.Name)
		}
		for _, n := range nets {
			for _, node := range n.Nodes() {
				m := transport.Message{From: "peer", To: node, Kind: "Test", Payload: reflect.New(c.Type.Elem()).Interface()}
				if err := n.Send(m); err != nil {
					t.Fatalf("%s to %s: %v", c.Name, node, err)
				}
				sent[fmt.Sprintf("%T", m.Payload)]++
			}
		}
	}
	if len(sent) != 24 {
		t.Errorf("sent %d payload types, want the program's 25 but WorkflowDone", len(sent))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, n := range []*transport.Network{dist.Network(), cent.Network()} {
		if err := n.Quiesce(ctx); err != nil {
			t.Fatal(err)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	unhandled := map[string]int{}
	for _, line := range logged {
		if typ, ok := strings.CutPrefix(line, "unhandled payload "); ok {
			unhandled[typ]++
		}
	}
	for typ, n := range sent {
		if unhandled[typ] >= n {
			t.Errorf("no node handles %s: each of the %d it was sent to logged it unhandled", typ, n)
		}
	}
}
