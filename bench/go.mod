module github.com/flashroute/flashroute/bench

go 1.23

require github.com/flashroute/flashroute v0.0.0

replace github.com/flashroute/flashroute => ../
