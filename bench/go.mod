module r2c2/bench

go 1.22

require r2c2 v0.0.0

replace r2c2 => ../
