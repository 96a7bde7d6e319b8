package wire

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/gloss/active/internal/ids"
)

// xmlEnvelope is the on-the-wire form of an Envelope as encoding/xml sees
// it: the struct Registry marshalled before it appended frames itself.
type xmlEnvelope struct {
	XMLName xml.Name `xml:"env"`
	From    string   `xml:"from,attr"`
	To      string   `xml:"to,attr"`
	Kind    string   `xml:"kind,attr"`
	CorrID  uint64   `xml:"corr,attr,omitempty"`
	IsReply bool     `xml:"reply,attr,omitempty"`
	Err     string   `xml:"err,attr,omitempty"`
	Body    []byte   `xml:",innerxml"`
}

// encodeReflect is Registry.Encode as it was on encoding/xml alone:
// marshal the message, then marshal an xmlEnvelope around it. It is the
// reference for every byte appendEnvelope and the AppendXML methods write.
func encodeReflect(env *Envelope) ([]byte, error) {
	xe := xmlEnvelope{
		From:    env.From.String(),
		To:      env.To.String(),
		CorrID:  env.CorrID,
		IsReply: env.IsReply,
		Err:     env.Err,
	}
	if env.Msg != nil {
		xe.Kind = env.Msg.Kind()
		body, err := xml.Marshal(env.Msg)
		if err != nil {
			return nil, fmt.Errorf("wire: encode %q: %w", xe.Kind, err)
		}
		xe.Body = body
	}
	var buf bytes.Buffer
	if err := xml.NewEncoder(&buf).Encode(xe); err != nil {
		return nil, fmt.Errorf("wire: encode envelope: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeTwoPass is Registry.Decode as it was before it read each frame
// once: unmarshal the envelope with the body kept as inner XML, then
// unmarshal the body with a second decoder. It stays here as the
// reference for what Decode must accept, reject and produce.
func decodeTwoPass(r *Registry, data []byte) (*Envelope, error) {
	var xe xmlEnvelope
	if err := xml.Unmarshal(data, &xe); err != nil {
		return nil, fmt.Errorf("wire: decode envelope: %w", err)
	}
	from, err := ids.Parse(xe.From)
	if err != nil {
		return nil, fmt.Errorf("wire: decode from: %w", err)
	}
	to, err := ids.Parse(xe.To)
	if err != nil {
		return nil, fmt.Errorf("wire: decode to: %w", err)
	}
	env := &Envelope{From: from, To: to, CorrID: xe.CorrID, IsReply: xe.IsReply, Err: xe.Err}
	if xe.Kind != "" {
		msg, err := r.New(xe.Kind)
		if err != nil {
			return nil, err
		}
		if err := xml.Unmarshal(xe.Body, msg); err != nil {
			return nil, fmt.Errorf("wire: decode body of %q: %w", xe.Kind, err)
		}
		env.Msg = msg
	}
	return env, nil
}

// sameDecode runs both decoders over one frame and requires the same
// verdict and, on success, the same envelope.
func sameDecode(t *testing.T, r *Registry, frame []byte) (*Envelope, error) {
	t.Helper()
	got, err := r.Decode(frame)
	want, wantErr := decodeTwoPass(r, frame)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("frame %q:\n one-pass error: %v\n two-pass error: %v", frame, err, wantErr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("frame %q:\n one-pass %+v (msg %+v)\n two-pass %+v (msg %+v)", frame, got, got.Msg, want, want.Msg)
	}
	return got, err
}

func TestDecodeEdgeCases(t *testing.T) {
	r := testRegistry()
	a, b := ids.FromString("a").String(), ids.FromString("b").String()
	hdr := fmt.Sprintf(`from="%s" to="%s"`, a, b)
	body := `<testMsg><name>n</name><count>3</count></testMsg>`
	cases := []struct {
		name, frame string
		ok          bool
		check       func(*Envelope) bool
	}{
		{"plain", `<env ` + hdr + ` kind="test.msg">` + body + `</env>`, true,
			func(e *Envelope) bool { return e.Msg.(*testMsg).Count == 3 }},
		{"prolog comment and whitespace before env",
			"<?xml version=\"1.0\"?>\n<!-- hello -->\n  <env " + hdr + ` kind="test.msg">` + body + `</env>`, true, nil},
		{"comment and whitespace before the body", `<env ` + hdr + ` kind="test.msg"> <!-- c --> ` + body + ` </env>`, true, nil},
		{"no kind, no body", `<env ` + hdr + `/>`, true, func(e *Envelope) bool { return e.Msg == nil }},
		{"empty kind, body ignored", `<env ` + hdr + ` kind="">` + body + `</env>`, true, func(e *Envelope) bool { return e.Msg == nil }},
		{"no kind, malformed body", `<env ` + hdr + `><x></y></env>`, false, nil},
		{"kind with empty body", `<env ` + hdr + ` kind="test.msg"></env>`, false, nil},
		{"kind on a self-closing env", `<env ` + hdr + ` kind="test.msg"/>`, false, nil},
		{"kind with text-only body", `<env ` + hdr + ` kind="test.msg">text<!-- c --></env>`, false, nil},
		{"unknown kind", `<env ` + hdr + ` kind="test.nope">` + body + `</env>`, false, nil},
		{"unknown kind, empty body", `<env ` + hdr + ` kind="test.nope"/>`, false, nil},
		{"extra siblings ignored", `<env ` + hdr + ` kind="test.msg">` + body + `<testMsg><count>9</count></testMsg><junk a="1"/></env>`, true,
			func(e *Envelope) bool { return e.Msg.(*testMsg).Count == 3 }},
		{"malformed extra sibling", `<env ` + hdr + ` kind="test.msg">` + body + `<junk></env>`, false, nil},
		{"body element of another name", `<env ` + hdr + ` kind="test.msg"><other><count>4</count></other></env>`, true,
			func(e *Envelope) bool { return e.Msg.(*testMsg).Count == 4 }},
		{"bad field in the body", `<env ` + hdr + ` kind="test.msg"><testMsg><count>x</count></testMsg></env>`, false, nil},
		{"unknown attributes ignored", `<env ` + hdr + ` zzz="1" xmlns:x="urn:x" x:junk="2"/>`, true, nil},
		{"prefixed attribute matches on its local name", `<env ` + hdr + ` xmlns:x="urn:x" x:corr="12"/>`, true,
			func(e *Envelope) bool { return e.CorrID == 12 }},
		{"prefixed attribute with a bad value", `<env ` + hdr + ` xmlns:x="urn:x" x:corr="zz"/>`, false, nil},
		{"default namespace on env", `<env xmlns="urn:x" ` + hdr + ` kind="test.msg">` + body + `</env>`, true, nil},
		{"prefixed body", `<env xmlns:p="urn:p" ` + hdr + ` kind="test.msg"><p:testMsg><p:count>5</p:count></p:testMsg></env>`, true,
			func(e *Envelope) bool { return e.Msg.(*testMsg).Count == 5 }},
		{"corr and reply", `<env ` + hdr + ` corr=" 7 " reply=" true "/>`, true, func(e *Envelope) bool { return e.CorrID == 7 && e.IsReply }},
		{"empty corr and reply", `<env ` + hdr + ` corr="" reply=""/>`, true, func(e *Envelope) bool { return e.CorrID == 0 && !e.IsReply }},
		{"bad corr", `<env ` + hdr + ` corr="-1"/>`, false, nil},
		{"bad reply", `<env ` + hdr + ` reply="maybe"/>`, false, nil},
		{"err attribute", `<env ` + hdr + ` reply="1" err="not &lt;found&gt;"/>`, true, func(e *Envelope) bool { return e.Err == "not <found>" }},
		{"repeated attribute, last wins", `<env ` + hdr + ` corr="1" corr="2"/>`, true, func(e *Envelope) bool { return e.CorrID == 2 }},
		{"bad from", `<env from="zz" to="` + b + `"/>`, false, nil},
		{"missing to", `<env from="` + a + `"/>`, false, nil},
		{"wrong root", `<envelope ` + hdr + `/>`, false, nil},
		{"trailing bytes after env", `<env ` + hdr + `/>trailing <junk`, true, nil},
		{"unterminated env", `<env ` + hdr + ` kind="test.msg">` + body, false, nil},
		{"empty input", ``, false, nil},
		{"only a prolog", `<?xml version="1.0"?>`, false, nil},
		{"foreign charset", `<?xml version="1.0" encoding="latin1"?><env ` + hdr + `/>`, false, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			env, err := sameDecode(t, r, []byte(c.frame))
			if (err == nil) != c.ok {
				t.Fatalf("decode error %v, want ok=%v", err, c.ok)
			}
			if c.check != nil && !c.check(env) {
				t.Fatalf("decoded %+v (msg %+v)", env, env.Msg)
			}
		})
	}
}

// TestDecodeMatchesTwoPassOnMutatedFrames splices XML-significant
// fragments into valid frames and deletes stretches of them: whatever the
// damage, the one-pass decoder and the reference agree.
func TestDecodeMatchesTwoPassOnMutatedFrames(t *testing.T) {
	r := testRegistry()
	var frames [][]byte
	for _, env := range []*Envelope{
		{From: ids.FromString("a"), To: ids.FromString("b"), CorrID: 4, Msg: &testMsg{Name: "x <&> y", Count: 2, Data: []byte{1, 2}}},
		{From: ids.FromString("c"), To: ids.FromString("d"), Msg: &otherMsg{V: "v"}},
		{From: ids.FromString("e"), To: ids.FromString("f"), CorrID: 9, IsReply: true, Err: "boom"},
	} {
		frame, err := r.Encode(env)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame)
	}
	splices := []string{"<", ">", "/", "</env>", "<env>", "<x/>", "<x>", "</x>", `"`, ` kind=""`, ` kind="test.other"`,
		` corr="x"`, ` x:to="1"`, "<!--", "-->", "<?xml?>", "&amp;", "&", "<![CDATA[", "]]>", " ", "\n", "<!-- c -->", "<y a='1'>t</y>", "<testMsg>", "</testMsg>"}
	rng := rand.New(rand.NewSource(17))
	accepted := 0
	for i := 0; i < 20000; i++ {
		frame := append([]byte(nil), frames[rng.Intn(len(frames))]...)
		for n := 1 + rng.Intn(2); n > 0; n-- {
			at := rng.Intn(len(frame) + 1)
			if rng.Intn(3) == 0 && at < len(frame) {
				end := at + 1 + rng.Intn(12)
				if end > len(frame) {
					end = len(frame)
				}
				frame = append(frame[:at], frame[end:]...)
			} else {
				s := splices[rng.Intn(len(splices))]
				frame = append(frame[:at], append([]byte(s), frame[at:]...)...)
			}
		}
		if _, err := sameDecode(t, r, frame); err == nil {
			accepted++
		}
	}
	if accepted < 500 || accepted > 19500 {
		t.Fatalf("%d of 20000 mutated frames decode: the mutations exercise one side only", accepted)
	}
}
