package gateway

// Accessors and operations only tests use.

// Cache exposes the last-value cache (the HTTP read path serves from it).
func (g *Gateway) Cache() *Cache { return g.cache }
