(* Inputs shared by several workloads. *)

module Isp = Rtr_topo.Isp
module Stream = Rtr_sim.Stream
module Pipeline = Rtr_sim.Pipeline
module Experiments = Rtr_sim.Experiments
module Report = Rtr_sim.Report

(* Recoverable and irrecoverable test cases drawn per Table II AS: one
   repro round evaluates 8 x 2 x [quota] = 6,400 cases. *)
let quota = 400

let generate seed =
  Pipeline.generate ~presets:Isp.table2 ~rec_quota:quota ~irr_quota:quota
    ~seed ~mrc_k:None ()

let digest s = Rtr_rmap.Compile.fnv64_hex s

let table3_digest data =
  digest (Report.render_table (Experiments.table3 data))

(* Directory holding the benchmark's files (digests.txt) and its
   scratch area ([work_dir], git-ignored). *)
let data_dir = "perfbench"
let work_dir () = Filename.concat data_dir "_work"

(* Table III digests recorded per seed (file lines "repro <seed>
   <fnv64>"), so a run checks its outputs against the committed
   program's, not only against itself.  [None] for an unrecorded seed. *)
let recorded_digest ~workload ~seed =
  let path = Filename.concat data_dir "digests.txt" in
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in path in
    let found = ref None in
    (try
       while true do
         match String.split_on_char ' ' (String.trim (input_line ic)) with
         | [ w; s; d ] when w = workload && int_of_string_opt s = Some seed ->
             found := Some d
         | _ -> ()
       done
     with End_of_file -> ());
    close_in ic;
    !found
  end

let stream_list records =
  let remaining = ref records in
  fun () ->
    match !remaining with
    | [] -> None
    | r :: tl ->
        remaining := tl;
        Some r
