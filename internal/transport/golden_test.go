package transport_test

import (
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"crew/internal/coord"
	"crew/internal/expr"
	"crew/internal/metrics"
	"crew/internal/transport"
)

// goldenFill sets every field of v to a value derived from a running
// counter: strings and map keys spell the counter, integers are spread over
// both signs, data items cycle through the four value kinds, maps and slices
// hold two entries. Pointers inside the payload are left nil when nilPtrs is
// set; a top-level pointer (the payload itself) never is. Numbers are
// fractions, but every other one is whole when whole is set.
type goldenFill struct {
	n       int
	nilPtrs bool
	whole   bool
}

func (g *goldenFill) next() int { g.n++; return g.n }

func (g *goldenFill) fill(v reflect.Value, top bool) {
	switch v.Type() {
	case valueType:
		n := g.next()
		num := float64(n) + 0.5
		if g.whole && n%8 == 4 {
			num = float64(n)
		}
		vals := []expr.Value{expr.Num(num), expr.Str(fmt.Sprintf("v%d", n)), expr.Bool(n%2 == 0), expr.Null()}
		v.Set(reflect.ValueOf(vals[n%len(vals)]))
		return
	case mechanismType:
		v.SetInt(int64(g.next() % len(metrics.Mechanisms)))
		return
	case opType:
		v.SetUint(uint64(g.next() % (int(coord.Forget) + 1)))
		return
	}
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", g.next()))
	case reflect.Bool:
		v.SetBool(g.next()%2 == 1)
	case reflect.Int, reflect.Int64:
		n := g.next()
		v.SetInt(int64(n*n*37) * int64(1-2*(n%2)))
	case reflect.Pointer:
		if top || !g.nilPtrs {
			v.Set(reflect.New(v.Type().Elem()))
			g.fill(v.Elem(), false)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			g.fill(v.Field(i), false)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		g.fill(v.Index(0), false)
		g.fill(v.Index(1), false)
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < 2; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			g.fill(k, false)
			g.fill(e, false)
			v.SetMapIndex(k, e)
		}
	default:
		panic("golden fill: no case for " + v.Type().String())
	}
}

// goldenPayload returns a payload of type t (as a Message carries it): the
// zero value, or one filled with or without its inner pointers, or with
// whole numbers among its fractions.
func goldenPayload(t reflect.Type, variant string) any {
	v := reflect.New(t).Elem()
	switch variant {
	case "zero":
		if t.Kind() == reflect.Pointer {
			v.Set(reflect.New(t.Elem()))
		}
	default:
		g := &goldenFill{nilPtrs: variant == "nil", whole: variant == "whole"}
		g.fill(v, true)
	}
	return v.Interface()
}

// TestPayloadGoldenBytes pins the wire bytes of every payload type the
// program registers, header included: one message each for the zero value,
// a filled value, and (where the type has an inner pointer) a filled value
// with that pointer nil; and one message whose data items hold a whole and a
// fractional number. The hex below changes only together with WireFormat; a
// refactor of the codecs must leave it as it is.
func TestPayloadGoldenBytes(t *testing.T) {
	if transport.WireFormat != 7 {
		t.Fatalf("WireFormat %d: the golden bytes below are format 7's", transport.WireFormat)
	}
	seen := 0
	for _, c := range transport.RegisteredPayloads() {
		if c.Name == "int" || strings.Contains(c.Name, "transport.") {
			continue // a type this package's own tests register (int: before payloads had walks)
		}
		seen++
		var full string
		variants := []string{"zero", "full", "nil"}
		if c.Name == "central.ExecRequest" {
			variants = append(variants, "whole")
		}
		for _, variant := range variants {
			m := transport.Message{From: "agent01", To: "agent02", Kind: "K", Mechanism: metrics.Failure,
				Payload: goldenPayload(c.Type, variant)}
			body, err := transport.EncodeMessage(m)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.Name, variant, err)
			}
			got := hex.EncodeToString(body)
			if variant == "full" {
				full = got
			}
			want, ok := goldenPayloads[c.Name+"/"+variant]
			if variant == "nil" && !ok && got == full {
				continue // no inner pointer: the same bytes as the full value
			}
			if got != want {
				t.Errorf("%s/%s:\n got  %s\n want %s", c.Name, variant, got, want)
			}
		}
	}
	if seen != 25 {
		t.Errorf("%d registered payload types have golden bytes, want 25", seen)
	}
}

// goldenPayloads is what the codecs wrote at WireFormat 7, keyed by payload
// type and variant: the bytes of format 6, whose numbers were all fractions,
// and the whole-number row; format 6's were format 5's but for the HaltThread
// and WorkflowRollback rows, which lost their initiator (and WorkflowRollback
// its epoch); format 5's were format 4's less one type (the purge note).
var goldenPayloads = map[string]string{
	"central.ExecRequest/full":               "00076167656e743031076167656e743032014b031363656e7472616c2e4578656352657175657374027331a802027333027334b90ee81402027337010000000000002140027339030101020373313101000000000000294003733133030102037331350100000000008030400373313703010403733230",
	"central.ExecRequest/nil":                "00076167656e743031076167656e743032014b031363656e7472616c2e4578656352657175657374027331a802027333027334b90ee814020273370100000000000021400273390301000103733132",
	"central.ExecRequest/zero":               "00076167656e743031076167656e743032014b031363656e7472616c2e457865635265717565737400000000000000000000",
	"central.ExecRequest/whole":              "00076167656e743031076167656e743032014b031363656e7472616c2e4578656352657175657374027331a802027333027334b90ee814020273370100000000000021400273390301010203733131041803733133030102037331350100000000008030400373313703010403733230",
	"central.ExecResponse/full":              "00076167656e743031076167656e743032014b031463656e7472616c2e45786563526573706f6e7365027331a802027333a009b90e0202733600027338020276390003733131",
	"central.ExecResponse/zero":              "00076167656e743031076167656e743032014b031463656e7472616c2e45786563526573706f6e73650000000000000000",
	"central.StateRequest/full":              "00076167656e743031076167656e743032014b031463656e7472616c2e53746174655265717565737402733102",
	"central.StateRequest/zero":              "00076167656e743031076167656e743032014b031463656e7472616c2e5374617465526571756573740000",
	"central.StateResponse/full":             "00076167656e743031076167656e743032014b031563656e7472616c2e5374617465526573706f6e7365027331a802",
	"central.StateResponse/zero":             "00076167656e743031076167656e743032014b031563656e7472616c2e5374617465526573706f6e73650000",
	"coord.Inject/full":                      "00076167656e743031076167656e743032014b030c636f6f72642e496e6a656374027331a802027333027334",
	"coord.Inject/zero":                      "00076167656e743031076167656e743032014b030c636f6f72642e496e6a65637400000000",
	"coord.Order/full":                       "00076167656e743031076167656e743032014b030b636f6f72642e4f72646572027331027332",
	"coord.Order/zero":                       "00076167656e743031076167656e743032014b030b636f6f72642e4f726465720000",
	"coord.Request/full":                     "00076167656e743031076167656e743032014b030d636f6f72642e5265717565737401027332027333027334b90e02733602027337027338",
	"coord.Request/zero":                     "00076167656e743031076167656e743032014b030d636f6f72642e5265717565737400000000000000",
	"coord.Resolve/full":                     "00076167656e743031076167656e743032014b030d636f6f72642e5265736f6c7665027331a80202733302027334027335",
	"coord.Resolve/zero":                     "00076167656e743031076167656e743032014b030d636f6f72642e5265736f6c766500000000",
	"distributed.WorkflowDone/full":          "00076167656e743031076167656e743032014b031864697374726962757465642e576f726b666c6f77446f6e65027331a8029905",
	"distributed.WorkflowDone/zero":          "00076167656e743031076167656e743032014b031864697374726962757465642e576f726b666c6f77446f6e65000000",
	"distributed.compensateSet/full":         "00076167656e743031076167656e743032014b031964697374726962757465642e636f6d70656e73617465536574027331a802027333020273340273350202733602733703",
	"distributed.compensateSet/zero":         "00076167656e743031076167656e743032014b031964697374726962757465642e636f6d70656e73617465536574000000000000",
	"distributed.compensateThread/full":      "00076167656e743031076167656e743032014b031c64697374726962757465642e636f6d70656e73617465546872656164027331a80202733304",
	"distributed.compensateThread/zero":      "00076167656e743031076167656e743032014b031c64697374726962757465642e636f6d70656e7361746554687265616400000000",
	"distributed.haltThread/full":            "00076167656e743031076167656e743032014b031664697374726962757465642e68616c74546872656164027331a802027333027334b90e01",
	"distributed.haltThread/zero":            "00076167656e743031076167656e743032014b031664697374726962757465642e68616c74546872656164000000000000",
	"distributed.nestedResult/full":          "00076167656e743031076167656e743032014b031864697374726962757465642e6e6573746564526573756c74027331a802027333027334b90e00020273370100000000000021400273390301",
	"distributed.nestedResult/zero":          "00076167656e743031076167656e743032014b031864697374726962757465642e6e6573746564526573756c7400000000000000",
	"distributed.stateInformation/full":      "00076167656e743031076167656e743032014b031c64697374726962757465642e7374617465496e666f726d6174696f6e027331",
	"distributed.stateInformation/zero":      "00076167656e743031076167656e743032014b031c64697374726962757465642e7374617465496e666f726d6174696f6e00",
	"distributed.stateInformationReply/full": "00076167656e743031076167656e743032014b032164697374726962757465642e7374617465496e666f726d6174696f6e5265706c79027331a802",
	"distributed.stateInformationReply/zero": "00076167656e743031076167656e743032014b032164697374726962757465642e7374617465496e666f726d6174696f6e5265706c790000",
	"distributed.stepCompensate/full":        "00076167656e743031076167656e743032014b031a64697374726962757465642e73746570436f6d70656e73617465027331a80202733302733400",
	"distributed.stepCompensate/zero":        "00076167656e743031076167656e743032014b031a64697374726962757465642e73746570436f6d70656e736174650000000000",
	"distributed.stepCompensated/full":       "00076167656e743031076167656e743032014b031b64697374726962757465642e73746570436f6d70656e7361746564027331a802027333",
	"distributed.stepCompensated/zero":       "00076167656e743031076167656e743032014b031b64697374726962757465642e73746570436f6d70656e7361746564000000",
	"distributed.stepCompleted/full":         "00076167656e743031076167656e743032014b031964697374726962757465642e73746570436f6d706c65746564027331a802027333a0090202733503010273370100000000000021400202733903733130",
	"distributed.stepCompleted/zero":         "00076167656e743031076167656e743032014b031964697374726962757465642e73746570436f6d706c65746564000000000000",
	"distributed.stepExecute/full":           "00076167656e743031076167656e743032014b031764697374726962757465642e737465704578656375746501027331a802990502733402027335030102733701000000000000214002027339037331300203733131037331320203733133037331340203733135037331360373313703",
	"distributed.stepExecute/nil":            "00076167656e743031076167656e743032014b031764697374726962757465642e73746570457865637574650001",
	"distributed.stepExecute/zero":           "00076167656e743031076167656e743032014b031764697374726962757465642e73746570457865637574650000",
	"distributed.stepStatus/full":            "00076167656e743031076167656e743032014b031664697374726962757465642e73746570537461747573027331a802027333027334027335",
	"distributed.stepStatus/zero":            "00076167656e743031076167656e743032014b031664697374726962757465642e737465705374617475730000000000",
	"distributed.stepStatusReply/full":       "00076167656e743031076167656e743032014b031b64697374726962757465642e737465705374617475735265706c79027331a802027333027334027335",
	"distributed.stepStatusReply/zero":       "00076167656e743031076167656e743032014b031b64697374726962757465642e737465705374617475735265706c790000000000",
	"distributed.workflowAbort/full":         "00076167656e743031076167656e743032014b031964697374726962757465642e776f726b666c6f7741626f7274027331a802",
	"distributed.workflowAbort/zero":         "00076167656e743031076167656e743032014b031964697374726962757465642e776f726b666c6f7741626f72740000",
	"distributed.workflowChangeInputs/full":  "00076167656e743031076167656e743032014b032064697374726962757465642e776f726b666c6f774368616e6765496e70757473027331a802020273330100000000000012400273350301",
	"distributed.workflowChangeInputs/zero":  "00076167656e743031076167656e743032014b032064697374726962757465642e776f726b666c6f774368616e6765496e70757473000000",
	"distributed.workflowRollback/full":      "00076167656e743031076167656e743032014b031c64697374726962757465642e776f726b666c6f77526f6c6c6261636b027331a80202733302027334020276350273360003",
	"distributed.workflowRollback/zero":      "00076167656e743031076167656e743032014b031c64697374726962757465642e776f726b666c6f77526f6c6c6261636b0000000000",
	"distributed.workflowStart/full":         "00076167656e743031076167656e743032014b031964697374726962757465642e776f726b666c6f775374617274027331a80202027333010000000000001240027335030101027337027338e92e0373313003733131",
	"distributed.workflowStart/nil":          "00076167656e743031076167656e743032014b031964697374726962757465642e776f726b666c6f775374617274027331a80202027333010000000000001240027335030100a91c027338027339",
	"distributed.workflowStart/zero":         "00076167656e743031076167656e743032014b031964697374726962757465642e776f726b666c6f77537461727400000000000000",
}
