module ejoin/benchmark

go 1.24.0

require ejoin v0.0.0

replace ejoin => ../
