type column = {
  name : string;
  ty : Value.ty;
}

type t = {
  cols : column array;
  (* name -> index, built once; schemas are small so an assoc list would
     do, but lookups sit on the per-row hot path of expression eval. *)
  index : (string, int) Hashtbl.t;
}

let build cols =
  let index = Hashtbl.create (List.length cols) in
  List.iteri
    (fun i c ->
       if Hashtbl.mem index c.name then
         invalid_arg (Printf.sprintf "Schema.make: duplicate column %S" c.name);
       Hashtbl.add index c.name i)
    cols;
  { cols = Array.of_list cols; index }

let make cols =
  if cols = [] then invalid_arg "Schema.make: empty schema";
  build cols

let columns t = Array.to_list t.cols

let arity t = Array.length t.cols

let index_of t name =
  match Hashtbl.find_opt t.index name with
  | Some i -> i
  | None -> raise Not_found

let mem t name = Hashtbl.mem t.index name

let column_type t name = t.cols.(index_of t name).ty

let column_names t = List.map (fun c -> c.name) (columns t)

let restrict t names =
  make (List.map (fun n -> t.cols.(index_of t n)) names)

let concat a b =
  let clash name = mem a name in
  let rename c = if clash c.name then { c with name = "r_" ^ c.name } else c in
  make (columns a @ List.map rename (columns b))

let with_column t col =
  if mem t col.name then
    make
      (List.map (fun c -> if c.name = col.name then col else c) (columns t))
  else make (columns t @ [ col ])

let equal a b =
  arity a = arity b
  && List.for_all2
       (fun ca cb -> ca.name = cb.name && ca.ty = cb.ty)
       (columns a) (columns b)

let pp ppf t =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       (fun ppf c -> Format.fprintf ppf "%s:%a" c.name Value.pp_ty c.ty))
    (columns t)

let to_string t = Format.asprintf "%a" pp t
