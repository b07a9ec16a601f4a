(** Figure data: the rows/series each experiment regenerates, printed in
    the same shape the paper reports. *)

open Scotch_util

type series = {
  label : string;
  points : (float * float) list; (* (x, y) *)
}

type figure = {
  id : string;       (* "fig3", "fig10", ... *)
  title : string;
  x_label : string;
  y_label : string;
  series : series list;
}

(** Look up a series by label (tests). *)
let series_exn fig label =
  match List.find_opt (fun s -> s.label = label) fig.series with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Report.series_exn: no series %s in %s" label fig.id)

(** y value at a given x in a series (tests). *)
let value_at s x =
  match List.assoc_opt x s.points with
  | Some y -> y
  | None -> invalid_arg (Printf.sprintf "Report.value_at: no x=%g in %s" x s.label)

let last_y s =
  match List.rev s.points with
  | (_, y) :: _ -> y
  | [] -> invalid_arg "Report.last_y: empty series"

let max_y s = List.fold_left (fun acc (_, y) -> Stdlib.max acc y) neg_infinity s.points
let min_y s = List.fold_left (fun acc (_, y) -> Stdlib.min acc y) infinity s.points

(** Render a figure as an aligned table: x column, one column per
    series.  Series may have different x grids; missing cells print
    blank. *)
let to_table fig =
  let xs =
    List.concat_map (fun s -> List.map fst s.points) fig.series
    |> List.sort_uniq compare
  in
  let tbl = Table_printer.create (fig.x_label :: List.map (fun s -> s.label) fig.series) in
  List.iter
    (fun x ->
      let cells =
        Printf.sprintf "%g" x
        :: List.map
             (fun s ->
               match List.assoc_opt x s.points with
               | Some y -> Printf.sprintf "%.4g" y
               | None -> "")
             fig.series
      in
      Table_printer.add_row tbl cells)
    xs;
  tbl

let check ok msg = if ok then [] else [ msg ]

let print fig =
  Printf.printf "== %s: %s ==\n" fig.id fig.title;
  Printf.printf "   (y: %s)\n" fig.y_label;
  Table_printer.print (to_table fig);
  print_newline ()
