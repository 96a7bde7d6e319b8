package wire

import (
	"math"
	"testing"
)

// TestXMLScannerNumbers pins the edges of the canonical integer forms,
// which random frames rarely reach.
func TestXMLScannerNumbers(t *testing.T) {
	for _, c := range []struct {
		text string
		want int64
		ok   bool
	}{
		{"0", 0, true}, {"7", 7, true}, {"-7", -7, true},
		{"9223372036854775807", math.MaxInt64, true},
		{"-9223372036854775808", math.MinInt64, true},
		{"9223372036854775808", 0, false}, {"-9223372036854775809", 0, false},
		{"99999999999999999999", 0, false}, {"184467440737095516150", 0, false},
		{"", 0, false}, {"-", 0, false}, {"-0", 0, false}, {"+1", 0, false}, {"01", 0, false},
		{" 1", 0, false}, {"1 ", 0, false}, {"1_0", 0, false}, {"0x1", 0, false}, {"1e3", 0, false},
	} {
		s := NewXMLScanner(nil)
		if got := s.Int([]byte(c.text)); (s.Err() == nil) != c.ok || got != c.want {
			t.Errorf("Int(%q) = %d, %v; want %d, ok=%v", c.text, got, s.Err(), c.want, c.ok)
		}
	}
	for _, c := range []struct {
		text string
		want uint64
		ok   bool
	}{
		{"0", 0, true}, {"18446744073709551615", math.MaxUint64, true},
		{"18446744073709551616", 0, false}, {"-1", 0, false}, {"00", 0, false}, {"", 0, false},
	} {
		s := NewXMLScanner(nil)
		if got := s.Uint([]byte(c.text)); (s.Err() == nil) != c.ok || got != c.want {
			t.Errorf("Uint(%q) = %d, %v; want %d, ok=%v", c.text, got, s.Err(), c.want, c.ok)
		}
	}
}

// TestXMLScannerText: what Attr and Text take, resolve and decline, one
// syntax rule per row; the differential tests then hold the same rules to
// encoding/xml wholesale.
func TestXMLScannerText(t *testing.T) {
	for _, c := range []struct {
		in, want string
		ok       bool
	}{
		{`plain`, "plain", true},
		{``, "", true},
		{`a&lt;b&gt;c&amp;d&apos;e&quot;f`, `a<b>c&d'e"f`, true},
		{`&#34;&#39;&#x9;&#xA;&#xD;&#xd;&#65;&#x41;&#x0041;`, "\"'\t\n\r\rAAA", true},
		{"é日\U0001D11E&#233;&#x1D11E;&#xFFFD;", "é日\U0001D11Eé\U0001D11E\ufffd", true},
		{" \x7f", " \x7f", true},
		{`&#0;`, "", false}, {`&#x1F;`, "", false}, {`&#xD800;`, "", false}, {`&#xFFFE;`, "", false},
		{`&#x110000;`, "", false}, {`&#x0000000041;`, "", false}, {`&#;`, "", false}, {`&#x;`, "", false},
		{`&#12a;`, "", false}, {`&bogus;`, "", false}, {`&LT;`, "", false}, {`&amp`, "", false}, {`&`, "", false},
		{"a\tb", "", false}, {"a\nb", "", false}, {"a\rb", "", false}, {"a\x00b", "", false},
		{`a>b`, "", false}, {`a'b`, "", false}, {`a"b`, "", false},
		{"\xff", "", false}, {"\xc3", "", false}, {"\xed\xa0\x80", "", false}, {"\ufffe", "", false}, {"\uffff", "", false},
	} {
		s := NewXMLScanner([]byte(c.in + "<"))
		if got := s.Text(); (s.Err() == nil) != c.ok || string(got) != c.want {
			t.Errorf("Text(%q) = %q, %v; want %q, ok=%v", c.in, got, s.Err(), c.want, c.ok)
		}
		if c.ok && !s.Match("<") {
			t.Errorf("Text(%q) did not stop at the tag", c.in)
		}
	}
	s := NewXMLScanner([]byte("unterminated"))
	if s.Text(); s.Err() == nil {
		t.Error("Text accepted character data that runs into the end of input")
	}
	s = NewXMLScanner([]byte(` a="1&amp;2" b="x"/>`))
	a := s.Attr("a")
	if _, ok := s.OptAttr("c"); ok {
		t.Error("OptAttr found an attribute that is not next")
	}
	if b := s.Attr("b"); string(a) != "1&2" || string(b) != "x" || !s.Match("/>") || !s.AtEnd() || s.Err() != nil {
		t.Errorf("attributes: a=%q b=%q err=%v", a, b, s.Err())
	}
	s = NewXMLScanner([]byte(` a='1'`))
	if s.Attr("a"); s.Err() == nil {
		t.Error("Attr accepted a single-quoted value")
	}
}

// TestAppendXMLText pins the escaper's table; TestXMLAppendMatchesMarshal
// holds it to encoding/xml on random text.
func TestAppendXMLText(t *testing.T) {
	in := "a<b>c&d'e\"f\tg\nh\ri\x00j\x1fk\x7fl\xffm\xc3n\xed\xa0\x80o\ufffep\uffffq\ufffdré\U0001D11E"
	want := "a&lt;b&gt;c&amp;d&#39;e&#34;f&#x9;g&#xA;h&#xD;i\ufffdj\ufffdk\x7fl\ufffdm\ufffdn\ufffd\ufffd\ufffdo\ufffdp\ufffdq\ufffdré\U0001D11E"
	if got := string(AppendXMLText([]byte("x"), in)); got != "x"+want {
		t.Errorf("AppendXMLText:\n got %q\nwant %q", got, "x"+want)
	}
}
