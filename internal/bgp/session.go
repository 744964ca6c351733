package bgp

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// Session is a minimal BGP speaker over a byte stream: OPEN exchange,
// KEEPALIVE heartbeats, and framed UPDATE/NOTIFICATION transport. It
// implements just enough of the RFC 4271 FSM (Idle → OpenSent →
// OpenConfirm → Established) for the substrate's injection path — the
// congestion mitigation system speaks real BGP to the edge routers
// when it injects withdrawals — and for tests to exercise the wire
// format over actual sockets.
type Session struct {
	conn     net.Conn
	localAS  ASN
	localID  uint32
	holdTime uint16

	mu sync.Mutex
	//tipsy:guardedby mu
	peerOpen *Open
	//tipsy:guardedby mu
	state SessionState
	//tipsy:guardedby mu
	closed bool
}

// SessionState is the subset of RFC 4271 §8 states the speaker moves
// through.
type SessionState uint8

const (
	// StateIdle is the initial state.
	StateIdle SessionState = iota
	// StateOpenSent means our OPEN is out, theirs is pending.
	StateOpenSent
	// StateEstablished means OPENs and confirming KEEPALIVEs crossed.
	StateEstablished
	// StateClosed means the session is over.
	StateClosed
)

// String implements fmt.Stringer.
func (s SessionState) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateOpenSent:
		return "open-sent"
	case StateEstablished:
		return "established"
	case StateClosed:
		return "closed"
	}
	return "unknown"
}

// ErrNotEstablished is returned when sending on a session that has
// not completed the handshake.
var ErrNotEstablished = errors.New("bgp: session not established")

// NewSession wraps a connection. Call Establish to run the handshake;
// both ends may call it concurrently (the exchange is symmetric).
func NewSession(conn net.Conn, localAS ASN, localID uint32, holdTime uint16) *Session {
	return &Session{conn: conn, localAS: localAS, localID: localID, holdTime: holdTime}
}

// Establish performs the OPEN/KEEPALIVE handshake and moves the
// session to Established.
func (s *Session) Establish() error {
	s.mu.Lock()
	if st := s.state; st != StateIdle {
		s.mu.Unlock()
		return fmt.Errorf("bgp: establish from state %v", st)
	}
	s.state = StateOpenSent
	s.mu.Unlock()

	// Both ends write their OPEN and confirming KEEPALIVE while
	// reading the peer's: writes run on a separate goroutine so the
	// symmetric exchange cannot deadlock on an unbuffered transport.
	open := &Open{Version: 4, AS: s.localAS, HoldTime: s.holdTime, BGPID: s.localID}
	wrote := make(chan error, 1)
	go func() {
		if _, err := s.conn.Write(open.Marshal()); err != nil {
			wrote <- err
			return
		}
		_, err := s.conn.Write(Keepalive{}.Marshal())
		wrote <- err
	}()
	msg, err := s.recv()
	if err != nil {
		return s.fail(err)
	}
	peerOpen, ok := msg.(*Open)
	if !ok {
		return s.fail(fmt.Errorf("bgp: expected OPEN, got %T", msg))
	}
	if peerOpen.Version != 4 {
		<-wrote
		s.Notify(2, 1, nil) // OPEN Message Error / Unsupported Version
		return s.fail(fmt.Errorf("bgp: peer version %d", peerOpen.Version))
	}
	// Wait for the peer's confirming KEEPALIVE.
	msg, err = s.recv()
	if err != nil {
		return s.fail(err)
	}
	if _, ok := msg.(Keepalive); !ok {
		return s.fail(fmt.Errorf("bgp: expected KEEPALIVE, got %T", msg))
	}
	if err := <-wrote; err != nil {
		return s.fail(err)
	}
	s.mu.Lock()
	s.peerOpen = peerOpen
	s.state = StateEstablished
	s.mu.Unlock()
	return nil
}

func (s *Session) fail(err error) error {
	s.mu.Lock()
	s.state = StateClosed
	s.mu.Unlock()
	return err
}

// recv reads and decodes one framed message.
func (s *Session) recv() (any, error) {
	raw, err := ReadMessage(s.conn)
	if err != nil {
		return nil, err
	}
	return Unmarshal(raw)
}

// State reports the session state.
func (s *Session) State() SessionState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// PeerOpen returns the OPEN received from the peer, once established.
func (s *Session) PeerOpen() *Open {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peerOpen
}

// SendUpdate transmits an UPDATE on an established session.
func (s *Session) SendUpdate(u *Update) error {
	if s.State() != StateEstablished {
		return ErrNotEstablished
	}
	_, err := s.conn.Write(u.Marshal())
	return err
}

// SendKeepalive transmits a KEEPALIVE heartbeat.
func (s *Session) SendKeepalive() error {
	if s.State() != StateEstablished {
		return ErrNotEstablished
	}
	_, err := s.conn.Write(Keepalive{}.Marshal())
	return err
}

// Notify sends a NOTIFICATION; per RFC 4271 the session closes after.
func (s *Session) Notify(code, subcode uint8, data []byte) error {
	_, err := s.conn.Write((&Notification{Code: code, Subcode: subcode, Data: data}).Marshal())
	s.Close()
	return err
}

// Recv reads the next message on an established session: *Update,
// Keepalive, or *Notification (after which the session is closed).
// SetDeadline on the underlying connection controls blocking.
func (s *Session) Recv() (any, error) {
	if s.State() != StateEstablished {
		return nil, ErrNotEstablished
	}
	msg, err := s.recv()
	if err != nil {
		if errors.Is(err, io.EOF) {
			s.Close()
		}
		return nil, err
	}
	if n, ok := msg.(*Notification); ok {
		s.Close()
		return n, nil
	}
	return msg, nil
}

// Close tears the session down.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.state = StateClosed
	s.mu.Unlock()
	return s.conn.Close()
}
