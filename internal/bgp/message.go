package bgp

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Message type codes, RFC 4271 §4.1.
const (
	TypeOpen         = 1
	TypeUpdate       = 2
	TypeNotification = 3
	TypeKeepalive    = 4
)

// Wire-format size limits, RFC 4271 §4.
const (
	HeaderLen     = 19
	MaxMessageLen = 4096
)

// Path attribute type codes, RFC 4271 §5 and RFC 1997.
const (
	AttrOrigin      = 1
	AttrASPath      = 2
	AttrNextHop     = 3
	AttrMED         = 4
	AttrLocalPref   = 5
	AttrCommunities = 8
)

// Attribute flag bits.
const (
	flagOptional   = 0x80
	flagTransitive = 0x40
	flagExtLen     = 0x10
)

// ORIGIN values.
const (
	OriginIGP        = 0
	OriginEGP        = 1
	OriginIncomplete = 2
)

// AS_PATH segment types.
const (
	ASSet      = 1
	ASSequence = 2
)

var (
	// ErrTruncated reports a message shorter than its framing claims.
	ErrTruncated = errors.New("bgp: truncated message")
	// ErrBadMarker reports a header whose 16-byte marker is not all ones.
	ErrBadMarker = errors.New("bgp: header marker is not all ones")
	// ErrBadLength reports a framing length outside [19, 4096].
	ErrBadLength = errors.New("bgp: message length out of range")
)

// Open is a BGP OPEN message (RFC 4271 §4.2). Optional parameters are
// carried opaquely; the simulated sessions negotiate nothing beyond
// 4-octet ASNs, which both ends assume.
type Open struct {
	Version  uint8
	AS       ASN // sender's ASN; also encoded in the My-AS field, clamped to AS_TRANS semantics omitted
	HoldTime uint16
	BGPID    uint32
	OptParam []byte
}

// Keepalive is a BGP KEEPALIVE message; it has no body.
type Keepalive struct{}

// Notification is a BGP NOTIFICATION message (RFC 4271 §4.5).
type Notification struct {
	Code    uint8
	Subcode uint8
	Data    []byte
}

// Update is a BGP UPDATE message (RFC 4271 §4.3): withdrawn routes,
// path attributes, and announced NLRI.
type Update struct {
	Withdrawn []Prefix
	Attrs     PathAttrs
	NLRI      []Prefix
}

// PathAttrs is the decoded set of path attributes TIPSY's substrate
// uses. Presence flags disambiguate zero values.
type PathAttrs struct {
	Origin       uint8
	ASPath       []ASN // single AS_SEQUENCE; sets are not generated
	NextHop      uint32
	MED          uint32
	LocalPref    uint32
	Communities  []uint32
	HasMED       bool
	HasLocalPref bool
}

// appendHeader appends the 19-byte common header.
func appendHeader(dst []byte, msgType uint8, bodyLen int) []byte {
	for i := 0; i < 16; i++ {
		dst = append(dst, 0xff)
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(HeaderLen+bodyLen))
	return append(dst, msgType)
}

// Marshal encodes the OPEN message including the common header.
func (o *Open) Marshal() []byte {
	body := make([]byte, 0, 10+len(o.OptParam))
	body = append(body, o.Version)
	myAS := uint16(23456) // AS_TRANS when the ASN does not fit in 2 octets
	if o.AS <= 0xffff {
		myAS = uint16(o.AS)
	}
	body = binary.BigEndian.AppendUint16(body, myAS)
	body = binary.BigEndian.AppendUint16(body, o.HoldTime)
	body = binary.BigEndian.AppendUint32(body, o.BGPID)
	body = append(body, byte(len(o.OptParam)))
	body = append(body, o.OptParam...)
	return append(appendHeader(nil, TypeOpen, len(body)), body...)
}

// Marshal encodes the KEEPALIVE message.
func (Keepalive) Marshal() []byte { return appendHeader(nil, TypeKeepalive, 0) }

// Marshal encodes the NOTIFICATION message.
func (n *Notification) Marshal() []byte {
	body := append([]byte{n.Code, n.Subcode}, n.Data...)
	return append(appendHeader(nil, TypeNotification, len(body)), body...)
}

// Marshal encodes the UPDATE message including the common header.
func (u *Update) Marshal() []byte {
	var withdrawn []byte
	for _, p := range u.Withdrawn {
		withdrawn = appendPrefix(withdrawn, p)
	}
	var attrs []byte
	if len(u.NLRI) > 0 {
		attrs = u.Attrs.marshal()
	}
	var nlri []byte
	for _, p := range u.NLRI {
		nlri = appendPrefix(nlri, p)
	}
	bodyLen := 2 + len(withdrawn) + 2 + len(attrs) + len(nlri)
	msg := appendHeader(make([]byte, 0, HeaderLen+bodyLen), TypeUpdate, bodyLen)
	msg = binary.BigEndian.AppendUint16(msg, uint16(len(withdrawn)))
	msg = append(msg, withdrawn...)
	msg = binary.BigEndian.AppendUint16(msg, uint16(len(attrs)))
	msg = append(msg, attrs...)
	return append(msg, nlri...)
}

// marshal encodes the path attributes in ascending type order.
func (a *PathAttrs) marshal() []byte {
	var out []byte
	appendAttr := func(typ uint8, val []byte) {
		flags := byte(flagTransitive)
		if typ == AttrMED {
			flags = flagOptional
		}
		if typ == AttrCommunities {
			flags = flagOptional | flagTransitive
		}
		if len(val) > 255 {
			out = append(out, flags|flagExtLen, typ)
			out = binary.BigEndian.AppendUint16(out, uint16(len(val)))
		} else {
			out = append(out, flags, typ, byte(len(val)))
		}
		out = append(out, val...)
	}
	appendAttr(AttrOrigin, []byte{a.Origin})
	path := make([]byte, 0, 2+4*len(a.ASPath))
	if len(a.ASPath) > 0 {
		path = append(path, ASSequence, byte(len(a.ASPath)))
		for _, as := range a.ASPath {
			path = binary.BigEndian.AppendUint32(path, uint32(as))
		}
	}
	appendAttr(AttrASPath, path)
	nh := binary.BigEndian.AppendUint32(nil, a.NextHop)
	appendAttr(AttrNextHop, nh)
	if a.HasMED {
		appendAttr(AttrMED, binary.BigEndian.AppendUint32(nil, a.MED))
	}
	if a.HasLocalPref {
		appendAttr(AttrLocalPref, binary.BigEndian.AppendUint32(nil, a.LocalPref))
	}
	if len(a.Communities) > 0 {
		val := make([]byte, 0, 4*len(a.Communities))
		for _, c := range a.Communities {
			val = binary.BigEndian.AppendUint32(val, c)
		}
		appendAttr(AttrCommunities, val)
	}
	return out
}

// parseAttrs decodes a path attribute block.
func parseAttrs(buf []byte) (PathAttrs, error) {
	var a PathAttrs
	for len(buf) > 0 {
		if len(buf) < 3 {
			return a, ErrTruncated
		}
		flags, typ := buf[0], buf[1]
		var alen, off int
		if flags&flagExtLen != 0 {
			if len(buf) < 4 {
				return a, ErrTruncated
			}
			alen = int(binary.BigEndian.Uint16(buf[2:4]))
			off = 4
		} else {
			alen = int(buf[2])
			off = 3
		}
		if len(buf) < off+alen {
			return a, ErrTruncated
		}
		val := buf[off : off+alen]
		switch typ {
		case AttrOrigin:
			if alen != 1 {
				return a, fmt.Errorf("bgp: ORIGIN length %d", alen)
			}
			a.Origin = val[0]
		case AttrASPath:
			for len(val) > 0 {
				if len(val) < 2 {
					return a, ErrTruncated
				}
				segType, count := val[0], int(val[1])
				if len(val) < 2+4*count {
					return a, ErrTruncated
				}
				for i := 0; i < count; i++ {
					as := ASN(binary.BigEndian.Uint32(val[2+4*i:]))
					if segType == ASSequence || segType == ASSet {
						a.ASPath = append(a.ASPath, as)
					}
				}
				val = val[2+4*count:]
			}
		case AttrNextHop:
			if alen != 4 {
				return a, fmt.Errorf("bgp: NEXT_HOP length %d", alen)
			}
			a.NextHop = binary.BigEndian.Uint32(val)
		case AttrMED:
			if alen != 4 {
				return a, fmt.Errorf("bgp: MED length %d", alen)
			}
			a.MED = binary.BigEndian.Uint32(val)
			a.HasMED = true
		case AttrLocalPref:
			if alen != 4 {
				return a, fmt.Errorf("bgp: LOCAL_PREF length %d", alen)
			}
			a.LocalPref = binary.BigEndian.Uint32(val)
			a.HasLocalPref = true
		case AttrCommunities:
			if alen%4 != 0 {
				return a, fmt.Errorf("bgp: COMMUNITIES length %d", alen)
			}
			for i := 0; i < alen; i += 4 {
				a.Communities = append(a.Communities, binary.BigEndian.Uint32(val[i:]))
			}
		default:
			// Unknown attributes are skipped; the substrate never
			// re-advertises messages it did not originate, so
			// transitive preservation does not apply.
		}
		buf = buf[off+alen:]
	}
	return a, nil
}

// Unmarshal decodes one complete BGP message (header included) and
// returns the typed message: *Open, *Update, *Notification, or
// Keepalive.
func Unmarshal(buf []byte) (any, error) {
	if len(buf) < HeaderLen {
		return nil, ErrTruncated
	}
	for i := 0; i < 16; i++ {
		if buf[i] != 0xff {
			return nil, ErrBadMarker
		}
	}
	length := int(binary.BigEndian.Uint16(buf[16:18]))
	if length < HeaderLen || length > MaxMessageLen {
		return nil, ErrBadLength
	}
	if len(buf) < length {
		return nil, ErrTruncated
	}
	body := buf[HeaderLen:length]
	switch buf[18] {
	case TypeOpen:
		if len(body) < 10 {
			return nil, ErrTruncated
		}
		o := &Open{
			Version:  body[0],
			AS:       ASN(binary.BigEndian.Uint16(body[1:3])),
			HoldTime: binary.BigEndian.Uint16(body[3:5]),
			BGPID:    binary.BigEndian.Uint32(body[5:9]),
		}
		optLen := int(body[9])
		if len(body) < 10+optLen {
			return nil, ErrTruncated
		}
		if optLen > 0 {
			o.OptParam = append([]byte(nil), body[10:10+optLen]...)
		}
		return o, nil
	case TypeKeepalive:
		if len(body) != 0 {
			return nil, fmt.Errorf("bgp: KEEPALIVE with %d body bytes", len(body))
		}
		return Keepalive{}, nil
	case TypeNotification:
		if len(body) < 2 {
			return nil, ErrTruncated
		}
		return &Notification{Code: body[0], Subcode: body[1], Data: append([]byte(nil), body[2:]...)}, nil
	case TypeUpdate:
		return unmarshalUpdate(body)
	default:
		return nil, fmt.Errorf("bgp: unknown message type %d", buf[18])
	}
}

func unmarshalUpdate(body []byte) (*Update, error) {
	if len(body) < 2 {
		return nil, ErrTruncated
	}
	u := &Update{}
	wlen := int(binary.BigEndian.Uint16(body[:2]))
	body = body[2:]
	if len(body) < wlen {
		return nil, ErrTruncated
	}
	wd := body[:wlen]
	for len(wd) > 0 {
		p, n, err := decodePrefix(wd)
		if err != nil {
			return nil, err
		}
		u.Withdrawn = append(u.Withdrawn, p)
		wd = wd[n:]
	}
	body = body[wlen:]
	if len(body) < 2 {
		return nil, ErrTruncated
	}
	alen := int(binary.BigEndian.Uint16(body[:2]))
	body = body[2:]
	if len(body) < alen {
		return nil, ErrTruncated
	}
	if alen > 0 {
		attrs, err := parseAttrs(body[:alen])
		if err != nil {
			return nil, err
		}
		u.Attrs = attrs
	}
	body = body[alen:]
	for len(body) > 0 {
		p, n, err := decodePrefix(body)
		if err != nil {
			return nil, err
		}
		u.NLRI = append(u.NLRI, p)
		body = body[n:]
	}
	return u, nil
}

// WireLen reports the full framed length of the next message in buf,
// or 0 if the header is incomplete.
func WireLen(buf []byte) int {
	if len(buf) < HeaderLen {
		return 0
	}
	return int(binary.BigEndian.Uint16(buf[16:18]))
}
