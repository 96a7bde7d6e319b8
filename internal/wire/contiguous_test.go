package wire

import (
	"encoding/xml"
	"fmt"
)

// encodeContiguous is BinaryCodec.Encode as it was before frames borrowed
// their bodies: the message body encoded first (its length is prefixed),
// then the header and the body appended to one growing buffer. It is the
// oracle the split encoder and the transport's gathered writes are held to
// (FuzzTailSplit, TestWireBytesUnchanged).
func (c *BinaryCodec) encodeContiguous(env *Envelope) ([]byte, error) {
	var flags byte
	if env.IsReply {
		flags |= flagReply
	}
	if env.Err != "" {
		flags |= flagHasErr
	}
	var kindID uint64
	var body []byte
	if env.Msg != nil {
		flags |= flagHasMsg
		kind := env.Msg.Kind()
		id, ok := c.kindID[kind]
		if !ok {
			return nil, fmt.Errorf("wire: binary encode: kind %q not in interned table", kind)
		}
		kindID = id
		if bm, ok := env.Msg.(BinaryMessage); ok {
			body = bm.AppendWire(nil)
		} else {
			xb, err := xml.Marshal(env.Msg)
			if err != nil {
				return nil, fmt.Errorf("wire: binary encode %q fallback: %w", kind, err)
			}
			flags |= flagXMLBody
			body = xb
		}
	}
	b := append(make([]byte, 0, 160), BinaryMagic, binaryVersion, flags)
	b = AppendID(b, env.From)
	b = AppendID(b, env.To)
	b = AppendUvarint(b, env.CorrID)
	if flags&flagHasErr != 0 {
		b = AppendString(b, env.Err)
	}
	if flags&flagHasMsg != 0 {
		b = AppendUvarint(b, kindID)
		b = AppendBytes(b, body)
	}
	return b, nil
}
