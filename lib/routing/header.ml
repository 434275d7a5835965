let link_id_bytes = 2
let node_id_bytes = 2
let mode_bytes = 1
let rec_init_bytes = 2
let payload_bytes = 1000

let rtr_phase1 ~n_failed ~n_cross =
  mode_bytes + rec_init_bytes + (link_id_bytes * (n_failed + n_cross))

let source_route ~hops = node_id_bytes * hops
let rtr_phase2 ~hops = mode_bytes + source_route ~hops
let fcp ~n_failed ~route_hops = (link_id_bytes * n_failed) + source_route ~hops:route_hops
