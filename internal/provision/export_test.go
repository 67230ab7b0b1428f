package provision

// EdgeCosts exposes the fast path's per-edge costs to the external tests.
func EdgeCosts(r Request, h Heuristic) []float64 { return edgeCosts(nil, r, h) }
