module viracocha/benchmark

go 1.22

require viracocha v0.0.0

replace viracocha => ../
