//go:build !linux

package netsim

import (
	"io"
	"net"
	"sync/atomic"
)

// reader returns what readLoop reads conn through: the connection itself
// where there is no lockless probe to poll with, so nobody needs watching.
func (e *TCPEndpoint) reader(conn net.Conn) io.Reader { return conn }

func watch(owner any, parked *atomic.Bool) {}
func unwatch(owner any)                    {}
