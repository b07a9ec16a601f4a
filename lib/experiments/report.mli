(** Figure data: the rows/series each experiment regenerates, printed
    in the same shape the paper's figures report. *)

type series = {
  label : string;
  points : (float * float) list; (** (x, y) *)
}

type figure = {
  id : string; (** "fig3", "fig10", "exp-fabric", ... *)
  title : string;
  x_label : string;
  y_label : string;
  series : series list;
}

(** Look up a series by label; raises [Invalid_argument] when absent. *)
val series_exn : figure -> string -> series

(** y value at a given x; raises when the point is absent. *)
val value_at : series -> float -> float

val last_y : series -> float
val max_y : series -> float
val min_y : series -> float

(** [check ok msg] is [[]] when [ok] holds and [[msg]] otherwise: one
    condition of an experiment's [failures] list (empty = pass). *)
val check : bool -> string -> string list

(** Render as an aligned table: one x column, one column per series
    (blank cells where a series has no point at that x). *)
val to_table : figure -> Scotch_util.Table_printer.t

val print : figure -> unit
