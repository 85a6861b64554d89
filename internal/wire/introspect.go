package wire

// Live introspection snapshots for the /debug/qos endpoint: each layer
// of the wire plane exposes its current state as a JSON-marshalable
// value, assembled per request by a monitor.Introspector. Snapshots are
// lock-cheap (atomics plus one short mutex hold per band) so scraping
// them does not perturb the data path being observed.

// LaneSnapshot is one server worker lane's live state.
type LaneSnapshot struct {
	Priority   int16 `json:"priority"`
	Workers    int   `json:"workers"`
	Depth      int   `json:"depth"`
	QueueLimit int   `json:"queue_limit"`
	// Requests is what the lane read, Outcomes how they ended (read first:
	// their sum never exceeds Requests, and equals it at quiesce). Served is
	// ok + exception, Refused queue_full + draining, and Shed deadline.
	Requests int64            `json:"requests"`
	Outcomes map[string]int64 `json:"outcomes"`
	Served   int64            `json:"served"`
	Refused  int64            `json:"refused"`
	Shed     int64            `json:"shed"`
	// Frames is the replies the lane has written, Flushes the Writes that
	// carried them: Frames/Flushes is the lane's messages per syscall.
	Frames  int64 `json:"frames"`
	Flushes int64 `json:"flushes"`
}

// ServerSnapshot is the server's live state.
type ServerSnapshot struct {
	Name        string         `json:"name"`
	Connections int            `json:"connections"`
	Draining    bool           `json:"draining"`
	Lanes       []LaneSnapshot `json:"lanes"`
}

// Snapshot returns the server's current state for live introspection.
func (s *Server) Snapshot() ServerSnapshot {
	s.mu.Lock()
	conns := len(s.conns)
	s.mu.Unlock()
	out := ServerSnapshot{Name: s.name, Connections: conns, Draining: s.draining.Load()}
	for _, lane := range s.lanes {
		var n [len(outcomes)]int64
		ls := LaneSnapshot{
			Priority:   lane.cfg.Priority,
			Workers:    lane.cfg.Workers,
			Depth:      len(lane.ch),
			QueueLimit: cap(lane.ch),
			Outcomes:   make(map[string]int64, len(n)),
			Frames:     s.frames.count(lane.label),
			Flushes:    s.flushes.count(lane.label),
		}
		for o, f := range outcomes {
			n[o] = lane.outcomes.count(f.label)
			ls.Outcomes[f.label] = n[o]
		}
		ls.Requests = s.requests.count(lane.label)
		ls.Served = n[outcomeOK] + n[outcomeException]
		ls.Refused = n[outcomeQueueFull] + n[outcomeDraining]
		ls.Shed = n[outcomeDeadline]
		out.Lanes = append(out.Lanes, ls)
	}
	return out
}

// BandSnapshot is one client priority band's live state: Conns is 1
// while the band holds its connection, Dialing 1 while a dial is in
// flight.
type BandSnapshot struct {
	Floor   int16  `json:"floor"`
	Conns   int    `json:"conns"`
	Dialing int    `json:"dialing"`
	Breaker string `json:"breaker"`
	// Frames is the messages the band has sent, Flushes the Writes that
	// carried them: Frames/Flushes is the band's messages per syscall.
	Frames  int64 `json:"frames"`
	Flushes int64 `json:"flushes"`
}

// ClientSnapshot is a banded client's live state.
type ClientSnapshot struct {
	Addr  string         `json:"addr"`
	Bands []BandSnapshot `json:"bands"`
}

// Snapshot returns the client's current connection and breaker state.
func (c *Client) Snapshot() ClientSnapshot {
	out := ClientSnapshot{Addr: c.cfg.Addr}
	for _, b := range c.bands {
		s := BandSnapshot{
			Floor:   b.floor,
			Breaker: c.brk.State(b.ep).String(),
			Frames:  c.frames.count(b.label),
			Flushes: c.flushes.count(b.label),
		}
		b.mu.Lock()
		if b.conn != nil {
			s.Conns = 1
		}
		if b.dialing != nil {
			s.Dialing = 1
		}
		b.mu.Unlock()
		out.Bands = append(out.Bands, s)
	}
	return out
}

// GroupEndpointSnapshot is one group member's live state.
type GroupEndpointSnapshot struct {
	Addr    string         `json:"addr"`
	Healthy bool           `json:"healthy"`
	Primary bool           `json:"primary"`
	Bands   []BandSnapshot `json:"bands"`
}

// GroupSnapshot is the fault-tolerant group client's live state:
// endpoint health, band connections per member, and retry-budget level.
type GroupSnapshot struct {
	Name         string                  `json:"name"`
	Primary      int                     `json:"primary"`
	BudgetTokens float64                 `json:"retry_budget_tokens"`
	BudgetSpent  int64                   `json:"retry_budget_spent"`
	BudgetDenied int64                   `json:"retry_budget_denied"`
	Endpoints    []GroupEndpointSnapshot `json:"endpoints"`
}

// Snapshot returns the group client's current state for introspection.
func (g *GroupClient) Snapshot() GroupSnapshot {
	primary := g.Primary()
	out := GroupSnapshot{
		Name:         g.name,
		Primary:      primary,
		BudgetTokens: g.budget.Tokens(),
		BudgetSpent:  g.budget.Spent(),
		BudgetDenied: g.budget.Denied(),
	}
	for i, ep := range g.eps {
		cs := ep.cli.Snapshot()
		out.Endpoints = append(out.Endpoints, GroupEndpointSnapshot{
			Addr:    ep.addr,
			Healthy: !ep.down.Load(),
			Primary: i == primary,
			Bands:   cs.Bands,
		})
	}
	return out
}
