module gem/bench

go 1.22

require gem v0.0.0

replace gem => ../
