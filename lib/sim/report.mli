(** Text and CSV rendering for experiment artifacts. *)

val render_table : Experiments.table -> string
(** Aligned plain-text table with title. *)

val render_figure : ?max_rows:int -> Experiments.figure -> string
(** The figure's series sampled into an aligned grid: one x column,
    one column per series.  [max_rows] thins dense x grids for
    readability (default 40). *)

val table_to_csv : Experiments.table -> string

val figure_to_csv : Experiments.figure -> string
(** Column per series, one row per x (series are expected to share the
    x grid, as all of [Experiments]'s figures do). *)

val mkdir_p : string -> unit
(** Creates a directory and its missing parents; errors are left for the
    first write into it to report. *)

val save : dir:string -> name:string -> string -> unit
(** Writes [dir/name], creating [dir] with {!mkdir_p} if needed. *)
