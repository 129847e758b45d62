package session

import (
	"context"
	"fmt"
	"strings"
)

// TypeName is the proxy type the status service is exported under.
const TypeName = "session.Service"

// Service exposes a node's dedup table over the ordinary invocation
// surface: proxyd exports it as services/session, and proxyctl's
// sessions verb renders it. It implements core.Service structurally
// (this package cannot import core; core imports it).
type Service struct{ tab *Table }

// NewService wraps a table for export. A nil table serves a disabled
// notice, mirroring the overload service's shape.
func NewService(tab *Table) *Service { return &Service{tab: tab} }

// Invoke dispatches the session methods.
func (s *Service) Invoke(_ context.Context, method string, _ []any) ([]any, error) {
	switch method {
	case "sessions":
		if s.tab == nil {
			return []any{"session: dedup disabled (no table)\n"}, nil
		}
		return []any{FormatStatus(s.tab.Stats(), s.tab.Sessions())}, nil
	default:
		return nil, fmt.Errorf("session: unknown method %q", method)
	}
}

// maxListed bounds the per-session lines in the status rendering; the
// summary always covers the whole table.
const maxListed = 32

// FormatStatus renders a table summary plus its busiest sessions (split
// out from Invoke so proxyctl's output is unit-testable without a
// cluster).
func FormatStatus(st Stats, infos []Info) string {
	var b strings.Builder
	fmt.Fprintf(&b, "sessions   %d live, %d tombstones, %d evicted\n", st.Sessions, st.Tombstones, st.Evictions)
	fmt.Fprintf(&b, "replies    %d cached\n", st.Replies)
	fmt.Fprintf(&b, "dedup      %d replays answered, %d in-flight dups, %d expired\n", st.Hits, st.InFlight, st.Expired)
	for i, info := range infos {
		if i >= maxListed {
			fmt.Fprintf(&b, "… and %d more\n", len(infos)-maxListed)
			break
		}
		fmt.Fprintf(&b, "  %016x seq=%d cached=%d inflight=%d\n", info.SID, info.High, info.Cached, info.InFlight)
	}
	return b.String()
}
