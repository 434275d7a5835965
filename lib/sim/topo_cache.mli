(** The per-topology compute cache, {!Rtr_routing.Topo_cache}, under its
    old name.  Only the perfbench workloads still reach it this way;
    every other caller uses {!Rtr_routing.Topo_cache}, and this shim
    goes once perfbench does too. *)

include module type of struct
  include Rtr_routing.Topo_cache
end
