(** The per-topology compute cache, {!Rtr_routing.Topo_cache}: one
    process-wide registry, re-exported here for the experiment
    harness. *)

include module type of struct
  include Rtr_routing.Topo_cache
end
