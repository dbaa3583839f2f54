package transport

import (
	"context"
	"sort"
	"testing"
	"time"

	"crew/internal/binenc"
	"crew/internal/metrics"
)

// benchMessage is a representative workflow-item message: short strings, a
// registered payload, the shape the distributed architecture sends per step.
func benchMessage() Message {
	return Message{
		From: "agent1", To: "agent2", Kind: "StepExecute",
		Mechanism: metrics.Coordination,
		Payload:   &wirePayload{A: "ProcessOrder.Reserve", B: 42},
	}
}

// BenchmarkFrameEncode measures the serialization cost of one message —
// what every socket-backend send pays over the in-process path.
func BenchmarkFrameEncode(b *testing.B) {
	m := benchMessage()
	var buf []byte
	var w binenc.Walker
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = appendMessage(buf[:0], m, &w)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(buf)))
}

// BenchmarkFrameDecode measures the deserialization cost of one message.
func BenchmarkFrameDecode(b *testing.B) {
	buf, err := encodeBody(benchMessage())
	if err != nil {
		b.Fatal(err)
	}
	var w binenc.Walker
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeMessage(&w, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireRoundTrip measures one-message send-to-receive latency on each
// backend and reports its distribution (p50/p99) alongside the mean: the
// socket backends pay a serialization plus syscall premium that a mean alone
// hides in the tail.
func BenchmarkWireRoundTrip(b *testing.B) {
	backends := []struct {
		name string
		mk   func(b *testing.B) *SocketWire
	}{
		{"inproc", func(b *testing.B) *SocketWire { return nil }},
		{"unix", func(b *testing.B) *SocketWire {
			w, err := NewSocketWire("unix", "")
			if err != nil {
				b.Fatal(err)
			}
			return w
		}},
		{"tcp", func(b *testing.B) *SocketWire {
			w, err := NewSocketWire("tcp", "")
			if err != nil {
				b.Fatal(err)
			}
			return w
		}},
	}
	for _, bk := range backends {
		b.Run(bk.name, func(b *testing.B) {
			n := NewNetwork(NetworkConfig{Collector: metrics.NewCollector(), Wire: bk.mk(b)})
			defer n.Close()
			n.MustRegister("agent1")
			ep := n.MustRegister("agent2")
			m := benchMessage()
			ctx := context.Background()
			samples := make([]time.Duration, 0, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				if err := n.Send(m); err != nil {
					b.Fatal(err)
				}
				<-ep.Inbox()
				samples = append(samples, time.Since(start))
			}
			b.StopTimer()
			if err := n.Quiesce(ctx); err != nil {
				b.Fatal(err)
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			if len(samples) > 0 {
				b.ReportMetric(float64(samples[len(samples)/2]), "p50-ns")
				b.ReportMetric(float64(samples[len(samples)*99/100]), "p99-ns")
			}
		})
	}
}
