(** The paper's delay model (Sec. IV-B).

    One hop costs 100 microseconds of router processing plus 1.7 ms of
    propagation (500 km links at ~2/3 c), i.e. 1.8 ms per hop. *)

val per_hop_s : float
(** 1.8e-3. *)

val of_hops : int -> float
(** Seconds taken by a packet crossing that many hops. *)

val ms : float -> float
(** Seconds to milliseconds, for reporting. *)
