module entitlement/bench

go 1.22

require entitlement v0.0.0

replace entitlement => ../
