// Package rawpoll provides non-blocking socket reads for poll-driven
// transport modules.
//
// Go's deadline-based reads return ErrDeadlineExceeded without attempting the
// read once the deadline has expired, so they cannot express "give me
// whatever is buffered right now". This package performs one genuine
// non-blocking read(2) on the connection's file descriptor — the faithful
// analogue of the zero-timeout select(2) the paper's TCP module uses to
// detect pending communication, with the same per-call system-call cost.
package rawpoll

import (
	"errors"
	"io"
	"net"
	"syscall"
)

// ErrWouldBlock reports that no data was available at the time of the read.
var ErrWouldBlock = errors.New("rawpoll: no data available")

// Fd returns the file descriptor behind c, or -1 when it has none. The fd
// stays owned by c: it is valid only until c is closed.
func Fd(c syscall.Conn) int {
	rc, err := c.SyscallConn()
	if err != nil {
		return -1
	}
	fd := -1
	_ = rc.Control(func(f uintptr) { fd = int(f) })
	return fd
}

// Reader performs non-blocking reads on one socket. It caches the RawConn so
// repeated polls do not reallocate.
type Reader struct {
	rc syscall.RawConn
}

// NewReader prepares non-blocking reads on c (any *net.TCPConn,
// *net.UDPConn, or other syscall.Conn).
func NewReader(c syscall.Conn) (*Reader, error) {
	rc, err := c.SyscallConn()
	if err != nil {
		return nil, err
	}
	return &Reader{rc: rc}, nil
}

// Read performs one non-blocking read into buf. It returns the number of
// bytes read; (0, ErrWouldBlock) when the socket has no data; (0, io.EOF) at
// end of stream.
func (r *Reader) Read(buf []byte) (int, error) {
	var n int
	var rerr error
	err := r.rc.Read(func(fd uintptr) bool {
		for {
			m, e := syscall.Read(int(fd), buf)
			switch {
			case e == syscall.EINTR:
				continue
			case e == syscall.EAGAIN || e == syscall.EWOULDBLOCK:
				n, rerr = 0, ErrWouldBlock
			case e != nil:
				n, rerr = 0, e
			case m == 0:
				n, rerr = 0, io.EOF
			default:
				n, rerr = m, nil
			}
			return true // never park; this is a poll
		}
	})
	if err != nil {
		return 0, err
	}
	return n, rerr
}

// ReadFrom performs one non-blocking recvfrom(2) into buf, returning the
// datagram's source address. It returns (0, nil, ErrWouldBlock) when no
// datagram is queued. Only meaningful for datagram sockets.
func (r *Reader) ReadFrom(buf []byte) (int, *net.UDPAddr, error) {
	var n int
	var from *net.UDPAddr
	var rerr error
	err := r.rc.Read(func(fd uintptr) bool {
		for {
			m, sa, e := syscall.Recvfrom(int(fd), buf, 0)
			switch {
			case e == syscall.EINTR:
				continue
			case e == syscall.EAGAIN || e == syscall.EWOULDBLOCK:
				n, rerr = 0, ErrWouldBlock
			case e != nil:
				n, rerr = 0, e
			default:
				n, from, rerr = m, sockaddrToUDP(sa), nil
			}
			return true // never park; this is a poll
		}
	})
	if err != nil {
		return 0, nil, err
	}
	return n, from, rerr
}

func sockaddrToUDP(sa syscall.Sockaddr) *net.UDPAddr {
	switch a := sa.(type) {
	case *syscall.SockaddrInet4:
		return &net.UDPAddr{IP: append([]byte(nil), a.Addr[:]...), Port: a.Port}
	case *syscall.SockaddrInet6:
		return &net.UDPAddr{IP: append([]byte(nil), a.Addr[:]...), Port: a.Port}
	default:
		return nil
	}
}
