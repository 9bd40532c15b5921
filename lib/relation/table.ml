(* A table is a schema plus row data in one of four physical
   representations:

   - row-backed: [Value.t array array], the seed engine's layout;
   - column-backed: one typed {!Column.t} per schema column (unboxed
     int/float/bool arrays, dictionary-encoded strings);
   - a view: column groups, each a set of base columns read through one
     shared row-index vector. JOIN, CROSS and SELECT return views, so a
     column nobody reads is never gathered (late materialization).

   Rows and columns are materialized lazily from whichever form the
   table has and memoized, so the whole pre-columnar API ([rows], [get],
   [create], ...) keeps working unchanged while the vectorized kernels
   exchange columns and views. The conversions are exact inverses (see
   Column), which is what the columnar differential suite proves
   end-to-end.

   Memo fields are unsynchronized on purpose: tables are immutable, so
   concurrent domains can at worst both compute the same value and race
   to store it — a benign race; a stale [None]/[-1] just recomputes. A
   view or a JOIN's matches are dropped only after the form they expand
   to is stored. *)

type view = {
  idx : int array array;
  vcols : (Column.t * int) array;
}

type matches = {
  lv : view;
  rv : view;
  build_left : bool;
  nprobe : int;
  pcode : int array;
  pvia : int array option;
  bstart : int array;
  brows : int array;
  pairs : int;
}

type t = {
  schema : Schema.t;
  nrows : int;
  mutable rows_v : Value.t array array option;
  mutable cols_v : Column.t array option;
  mutable view_v : view option;
  mutable join_v : matches option;
  mutable bytes : int array option;  (* memoized [column_bytes] *)
  stored : bool;  (* a store's entry: it expands within its words *)
}

let check_row schema i row =
  if Array.length row <> Schema.arity schema then
    invalid_arg
      (Printf.sprintf "Table.create: row %d has arity %d, schema %s" i
         (Array.length row) (Schema.to_string schema));
  List.iteri
    (fun j (c : Schema.column) ->
       let ty = Value.type_of row.(j) in
       if ty <> c.ty then
         invalid_arg
           (Printf.sprintf
              "Table.create: row %d column %s has type %s, expected %s" i
              c.name (Value.ty_to_string ty) (Value.ty_to_string c.ty)))
    (Schema.columns schema)

let of_rows schema rows =
  { schema; nrows = Array.length rows; rows_v = Some rows; cols_v = None;
    view_v = None; join_v = None; bytes = None; stored = false }

(* a column-backed table from kernel output, correct by construction *)
let of_columns_unchecked schema cols =
  let nrows = if Array.length cols = 0 then 0 else Column.length cols.(0) in
  { schema; nrows; rows_v = None; cols_v = Some cols; view_v = None;
    join_v = None; bytes = None; stored = false }

let create schema rows =
  List.iteri (check_row schema) rows;
  of_rows schema (Array.of_list rows)

let create_unchecked schema rows = of_rows schema rows

let empty schema = of_rows schema [||]

let of_columns schema cols =
  let arity = Schema.arity schema in
  if Array.length cols <> arity then
    invalid_arg
      (Printf.sprintf "Table.of_columns: %d columns for schema %s"
         (Array.length cols) (Schema.to_string schema));
  let nrows = if arity = 0 then 0 else Column.length cols.(0) in
  List.iteri
    (fun j (c : Schema.column) ->
       let col = cols.(j) in
       if Column.length col <> nrows then
         invalid_arg
           (Printf.sprintf
              "Table.of_columns: column %s has %d rows, expected %d" c.name
              (Column.length col) nrows);
       if Column.ty col <> c.ty then
         invalid_arg
           (Printf.sprintf
              "Table.of_columns: column %s has type %s, expected %s" c.name
              (Value.ty_to_string (Column.ty col))
              (Value.ty_to_string c.ty));
       if not (Column.all_valid col) then
         invalid_arg
           (Printf.sprintf
              "Table.of_columns: column %s has null slots (tables are \
               non-nullable)"
              c.name))
    (Schema.columns schema);
  of_columns_unchecked schema cols

let schema t = t.schema

let row_count t = t.nrows

let is_empty t = row_count t = 0

(* ---- views ---- *)

let compose (ix : int array) (keep : int array) =
  let n = Array.length keep in
  let out = Array.make n 0 in
  for k = 0 to n - 1 do
    out.(k) <- ix.(keep.(k))
  done;
  out

let reindex v keep =
  let groups = Array.length v.idx in
  { idx = Array.append (Array.map (fun ix -> compose ix keep) v.idx) [| keep |];
    vcols = Array.map (fun (c, g) -> (c, if g < 0 then groups else g)) v.vcols }

let concat_views a b =
  let shift = Array.length a.idx in
  { idx = Array.append a.idx b.idx;
    vcols =
      Array.append a.vcols
        (Array.map
           (fun (c, g) -> (c, if g < 0 then g else g + shift))
           b.vcols) }

(* the groups some column reads, in order *)
let used_groups v =
  List.filter (fun g -> g >= 0)
    (List.sort_uniq compare (List.map snd (Array.to_list v.vcols)))

(* groups no column reads are dropped, so no kernel composes or keeps
   alive an index nobody reads *)
let prune v =
  let used = used_groups v in
  let remap g = if g < 0 then g else List.length (List.filter (( > ) g) used) in
  { idx = Array.of_list (List.map (Array.get v.idx) used);
    vcols = Array.map (fun (c, g) -> (c, remap g)) v.vcols }

(* ---- a JOIN's matches ---- *)

let code_at via codes i =
  match via with None -> codes.(i) | Some ix -> codes.(ix.(i))

(* The pairs of [m] handed to [flush lidx ridx n] in runs of [block]
   pairs (the last may be shorter), through two buffers reused from run
   to run. A left build side is probed by the right rows in order, so
   the pairs come in the serial kernel's order — right rows ascending,
   each right row's left rows newest first, its [Hashtbl.find_all]
   order. A right build side is probed by the left rows, newest
   first. *)
let iter_pairs m ~block flush =
  let lbuf = Array.make block 0 and rbuf = Array.make block 0 in
  let build, probe = if m.build_left then (lbuf, rbuf) else (rbuf, lbuf) in
  let bstart = m.bstart and brows = m.brows and pcode = m.pcode in
  let k = ref 0 in
  for s = 0 to m.nprobe - 1 do
    let q = if m.build_left then s else m.nprobe - 1 - s in
    let c = match m.pvia with None -> pcode.(q) | Some ix -> pcode.(ix.(q)) in
    if c >= 0 then
      for p = bstart.(c) to bstart.(c + 1) - 1 do
        build.(!k) <- brows.(p);
        probe.(!k) <- q;
        incr k;
        if !k = block then begin
          flush lbuf rbuf block;
          k := 0
        end
      done
  done;
  if !k > 0 then flush lbuf rbuf !k

let matches_view m lidx ridx =
  concat_views (reindex m.lv lidx) (reindex m.rv ridx)

(* pairs per run when a JOIN's matches are gathered: each run's
   buffers stay in the minor heap *)
let matches_block = 256

(* Every column of [m]'s pairs, gathered straight through the matches
   in runs: a column of a side's group reads through that group's
   index composed with the run's rows, composed once per run. *)
let gather_matches m =
  let block = max 1 (min m.pairs matches_block) in
  let side (v : view) =
    let out = Array.map (fun (c, _) -> Column.Gatherer.create c m.pairs) v.vcols in
    let composed = Array.map (fun _ -> Array.make block 0) v.idx in
    let add (rows : int array) n =
      Array.iteri
        (fun g ix ->
           let o = composed.(g) in
           for k = 0 to n - 1 do
             o.(k) <- ix.(rows.(k))
           done)
        v.idx;
      Array.iteri
        (fun j (_, g) ->
           Column.Gatherer.add out.(j) (if g < 0 then rows else composed.(g)) n)
        v.vcols
    in
    (out, add)
  in
  let lout, ladd = side m.lv and rout, radd = side m.rv in
  iter_pairs m ~block (fun lb rb n ->
      ladd lb n;
      radd rb n);
  Array.map Column.Gatherer.finish (Array.append lout rout)

(* The words a table holds beyond its dictionaries, each column entry,
   index entry or dictionary code one word: [view_words] for a view
   (its indexes, and every distinct base column it reads through one;
   row-aligned columns are shared with the gathered form and not
   counted) and [matches_words] for a JOIN's matches (their buckets and
   probe codes, both sides' indexes and every distinct base column). *)
let distinct_words cols =
  List.fold_left (fun s c -> s + Column.length c) 0
    (List.fold_left
       (fun acc c -> if List.memq c acc then acc else c :: acc)
       [] cols)

let view_words v ~rows =
  (Array.length v.idx * rows)
  + distinct_words
      (List.filter_map
         (fun (c, g) -> if g >= 0 then Some c else None)
         (Array.to_list v.vcols))

let matches_words m =
  let idx_words (v : view) =
    Array.fold_left (fun s ix -> s + Array.length ix) 0 v.idx
  in
  Array.length m.bstart + Array.length m.brows + Array.length m.pcode
  + (match m.pvia with Some ix -> Array.length ix | None -> 0)
  + idx_words m.lv + idx_words m.rv
  + distinct_words
      (List.map fst (Array.to_list m.lv.vcols @ Array.to_list m.rv.vcols))

(* the words of the pair view [matches_view] would build: one index per
   group a side's columns read, plus one for its row-aligned columns *)
let pair_view_words m =
  let groups (v : view) =
    List.length (used_groups v)
    + if Array.exists (fun (_, g) -> g < 0) v.vcols then 1 else 0
  in
  ((groups m.lv + groups m.rv) * m.pairs)
  + distinct_words
      (List.map fst (Array.to_list m.lv.vcols @ Array.to_list m.rv.vcols))

let view_materialized = "kernel.view.materialized"

let join_expanded = "kernel.join.expanded"

let force_view t v =
  Obs.Metrics.incr Obs.Metrics.default view_materialized;
  let cols =
    Array.map
      (fun (c, g) -> if g < 0 then c else Column.gather c v.idx.(g))
      v.vcols
  in
  t.cols_v <- Some cols;
  t.view_v <- None;
  cols

let gather_join t m =
  Obs.Metrics.incr Obs.Metrics.default join_expanded;
  let cols = gather_matches m in
  t.cols_v <- Some cols;
  t.join_v <- None;
  cols

(* A consumer that reads a JOIN's rows through a view gets the pair
   view, as kernels read any view. A store's entry, and a JOIN a store
   is about to keep ([~fit]), gets the pair view only when it holds no
   more words than the gathered columns, and the columns, gathered
   straight through the matches, otherwise: so expanding a stored entry
   keeps it within its materialized words. *)
let expand ~fit t m =
  if (not fit) || pair_view_words m <= Schema.arity t.schema * t.nrows
  then begin
    Obs.Metrics.incr Obs.Metrics.default join_expanded;
    let out = ref ([||], [||]) in
    iter_pairs m ~block:m.pairs (fun lidx ridx _ -> out := (lidx, ridx));
    let lidx, ridx = !out in
    t.view_v <- Some (prune (matches_view m lidx ridx));
    t.join_v <- None
  end
  else ignore (gather_join t m)

let columns t =
  match t.cols_v with
  | Some cols -> cols
  | None -> (
    match (t.join_v, t.view_v) with
    | Some m, _ -> gather_join t m
    | None, Some v -> force_view t v
    | None, None ->
      let rows = Option.get t.rows_v in
      let col_tys =
        Array.of_list
          (List.map (fun (c : Schema.column) -> c.ty)
             (Schema.columns t.schema))
      in
      let cols =
        Array.mapi
          (fun j ty ->
             Column.of_values ty (Array.map (fun row -> row.(j)) rows))
          col_tys
      in
      t.cols_v <- Some cols;
      cols)

let rows t =
  match t.rows_v with
  | Some rows -> rows
  | None ->
    let cols = columns t in
    let arity = Array.length cols in
    let rows =
      Array.init t.nrows (fun i ->
          Array.init arity (fun j -> Column.get cols.(j) i))
    in
    t.rows_v <- Some rows;
    rows

let is_columnar t = t.cols_v <> None

let is_view t = t.view_v <> None

let matches t = t.join_v

let materialize t =
  if is_view t || t.join_v <> None then ignore (columns t);
  t

(* the columns, when the table has them or is a view or a JOIN's
   matches *)
let cols_opt t =
  if is_view t || t.join_v <> None then Some (columns t) else t.cols_v

let rec parts t =
  match (t.view_v, t.join_v) with
  | Some v, _ -> v
  | None, Some m ->
    expand ~fit:t.stored t m;
    parts t
  | None, None ->
    { idx = [||]; vcols = Array.map (fun c -> (c, -1)) (columns t) }

(* A view whose columns are all row-aligned is plain columns *)
let of_view schema ~rows v =
  if Array.for_all (fun (_, g) -> g < 0) v.vcols then
    of_columns_unchecked schema (Array.map fst v.vcols)
  else
    { schema; nrows = rows; rows_v = None; cols_v = None;
      view_v = Some (prune v); join_v = None; bytes = None; stored = false }

let of_matches schema m =
  { schema; nrows = m.pairs; rows_v = None; cols_v = None; view_v = None;
    join_v = Some m; bytes = None; stored = false }

(* A stored table outlives the job that made it, so a store keeps
   whichever form holds fewer words: a view when its words are no more
   than the columns it would gather (one per indexed column and row),
   and a JOIN's matches when theirs are no more than the pairs'
   columns; otherwise the smaller of the matches' expansions. *)
let view_stored = "kernel.view.stored"

let join_stored = "kernel.join.stored"

let rec for_store t =
  match (t.view_v, t.join_v) with
  | None, None -> t
  | None, Some m ->
    if matches_words m <= Schema.arity t.schema * t.nrows then begin
      Obs.Metrics.incr Obs.Metrics.default join_stored;
      { t with stored = true }
    end
    else begin
      expand ~fit:true t m;
      for_store t
    end
  | Some v, _ ->
    let indexed =
      Array.fold_left (fun n (_, g) -> if g >= 0 then n + 1 else n) 0 v.vcols
    in
    if view_words v ~rows:t.nrows <= indexed * t.nrows then begin
      Obs.Metrics.incr Obs.Metrics.default view_stored;
      t
    end
    else materialize t

let column t name =
  let i = Schema.index_of t.schema name in
  match cols_opt t with
  | Some cols -> Column.to_values cols.(i)
  | None -> Array.map (fun row -> row.(i)) (rows t)

let get t i name =
  let j = Schema.index_of t.schema name in
  match cols_opt t with
  | Some cols -> Column.get cols.(j) i
  | None -> (rows t).(i).(j)

(* ---- modeled encoded size ----

   One logical size, per column: 8 bytes per int or float, 1 per bool,
   and for strings a 4-byte dictionary code per row plus [length + 1]
   bytes per distinct value. It is computed from whichever form the
   table has — rows, columns, a view, whose columns count only the
   dictionary entries their index reaches, or a JOIN's matches, counted
   without their pairs — so it depends on the
   contents alone: never on the kernel that made the table, nor on when
   a view is gathered. Sizing never forces a conversion. *)

let rows_column_bytes rows j (c : Schema.column) =
  let n = Array.length rows in
  match c.ty with
  | Value.Tint | Value.Tfloat -> 8 * n
  | Value.Tbool -> n
  | Value.Tstring ->
    let distinct : (string, unit) Hashtbl.t = Hashtbl.create 64 in
    Array.fold_left
      (fun bytes row ->
         match row.(j) with
         | Value.Str s when not (Hashtbl.mem distinct s) ->
           Hashtbl.add distinct s ();
           bytes + String.length s + 1
         | _ -> bytes)
      (4 * n) rows

(* A JOIN's {!column_bytes} from counts, without its pairs: a column
   of the JOIN's output has [m.pairs] rows, and its values are those of
   the rows on its side whose key matches at least once. A probe row
   matches when its bucket is not empty, and a build row when some probe
   row reaches its bucket. *)
let matches_bytes m =
  let groups = Array.length m.bstart - 1 in
  (* the matching rows are listed only for a side with a string column:
     every other column costs a fixed width per pair, so k-means, whose
     120,000-row probe side holds no string, lists none *)
  let hit =
    lazy
      (let hit = Array.make groups false in
       for q = 0 to m.nprobe - 1 do
         let c = code_at m.pvia m.pcode q in
         if c >= 0 && m.bstart.(c + 1) > m.bstart.(c) then hit.(c) <- true
       done;
       hit)
  in
  let probed =
    lazy
      (let hit = Lazy.force hit in
       let rows = Array.make m.nprobe 0 and n = ref 0 in
       for q = 0 to m.nprobe - 1 do
         let c = code_at m.pvia m.pcode q in
         if c >= 0 && hit.(c) then begin
           rows.(!n) <- q;
           incr n
         end
       done;
       Array.sub rows 0 !n)
  and built =
    lazy
      (let hit = Lazy.force hit in
       let rows = Array.make (Array.length m.brows) 0 and n = ref 0 in
       for c = 0 to groups - 1 do
         if hit.(c) then
           for p = m.bstart.(c) to m.bstart.(c + 1) - 1 do
             rows.(!n) <- m.brows.(p);
             incr n
           done
       done;
       Array.sub rows 0 !n)
  in
  let bytes (v : view) rows =
    Array.map
      (fun (c, g) ->
         if Column.ty c <> Value.Tstring then
           Column.encoded_bytes ~rows:m.pairs c
         else
           let rows = Lazy.force rows in
           let idx = if g < 0 then rows else compose v.idx.(g) rows in
           Column.encoded_bytes ~idx ~rows:m.pairs c)
      v.vcols
  in
  let lrows, rrows =
    if m.build_left then (built, probed) else (probed, built)
  in
  Array.append (bytes m.lv lrows) (bytes m.rv rrows)

let column_bytes t =
  match t.bytes with
  | Some b -> b
  | None ->
    let b =
      match (t.join_v, t.view_v, t.cols_v) with
      | Some m, _, _ -> matches_bytes m
      | None, Some v, _ ->
        Array.map
          (fun (c, g) ->
             if g < 0 then Column.encoded_bytes c
             else Column.encoded_bytes ~idx:v.idx.(g) c)
          v.vcols
      | None, None, Some cols ->
        Array.map (fun c -> Column.encoded_bytes c) cols
      | None, None, None ->
        let rows = Option.get t.rows_v in
        Array.of_list
          (List.mapi (rows_column_bytes rows) (Schema.columns t.schema))
    in
    t.bytes <- Some b;
    b

let encoded_bytes t = Array.fold_left ( + ) 0 (column_bytes t)

let encoded_mb t = float_of_int (encoded_bytes t) /. (1024. *. 1024.)

let compare_rows a b =
  let n = Array.length a in
  let rec go i =
    if i >= n then 0
    else
      match Value.compare a.(i) b.(i) with
      | 0 -> go (i + 1)
      | c -> c
  in
  go 0

(* Stable sort of [rows] under [cmp]: keys first, original row
   position on ties. *)
let sort_rows_with cmp rows =
  let copy = Array.copy rows in
  Array.stable_sort cmp copy;
  copy

let sorted_rows t = sort_rows_with compare_rows (rows t)

let equal_unordered a b =
  Schema.equal a.schema b.schema
  && row_count a = row_count b
  &&
  let ra = sorted_rows a and rb = sorted_rows b in
  let n = Array.length ra in
  let rec go i = i >= n || (compare_rows ra.(i) rb.(i) = 0 && go (i + 1)) in
  go 0

(* CSV with '|' separators: none of the generated data contains '|', and
   the simulated HDFS never faces adversarial input. *)
let sep = '|'

let to_csv t =
  let buf = Buffer.create (16 * (row_count t + 1)) in
  (match cols_opt t with
   | Some cols ->
     (* stream straight off the columns; no boxed rows materialized *)
     let arity = Array.length cols in
     for i = 0 to t.nrows - 1 do
       for j = 0 to arity - 1 do
         if j > 0 then Buffer.add_char buf sep;
         Buffer.add_string buf (Value.to_string (Column.get cols.(j) i))
       done;
       Buffer.add_char buf '\n'
     done
   | None ->
     Array.iter
       (fun row ->
          Array.iteri
            (fun j v ->
               if j > 0 then Buffer.add_char buf sep;
               Buffer.add_string buf (Value.to_string v))
            row;
          Buffer.add_char buf '\n')
       (rows t));
  Buffer.contents buf

let of_csv schema s =
  let types =
    List.map (fun (c : Schema.column) -> c.ty) (Schema.columns schema)
  in
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  if Column.enabled () then begin
    (* parse straight into column builders: loaded relations start
       column-backed, so the first kernel pays no conversion *)
    let builders =
      Array.of_list
        (List.map (fun ty -> Column.Builder.create ~capacity:64 ty) types)
    in
    let tys = Array.of_list types in
    let arity = Array.length tys in
    List.iter
      (fun line ->
         let fields = String.split_on_char sep line in
         if List.length fields <> arity then
           invalid_arg (Printf.sprintf "Table.of_csv: bad line %S" line);
         List.iteri
           (fun j f -> Column.Builder.push builders.(j) (Value.parse tys.(j) f))
           fields)
      lines;
    of_columns schema (Array.map Column.Builder.to_column builders)
  end
  else begin
    let parse_line line =
      let fields = String.split_on_char sep line in
      if List.length fields <> List.length types then
        invalid_arg (Printf.sprintf "Table.of_csv: bad line %S" line);
      Array.of_list (List.map2 Value.parse types fields)
    in
    of_rows schema (Array.of_list (List.map parse_line lines))
  end

(* ---- sorting ---- *)

(* Columnar sort: stable-sort a permutation of row indexes with typed
   per-column comparators ({!Column.compare_at} matches Value.compare's
   same-type semantics exactly), then gather every column through the
   permutation. Ties keep ascending index order — the original row
   order — so the result is byte-identical to the row engine's stable
   sort, while never touching a boxed value. *)
let columnar_sort_by ~descending t names =
  let cols = columns t in
  let key_cols =
    List.map (fun n -> cols.(Schema.index_of t.schema n)) names
  in
  let cmp_keys i j =
    let rec go = function
      | [] -> 0
      | c :: rest -> (
        match Column.compare_at c i j with
        | 0 -> go rest
        | r -> r)
    in
    go key_cols
  in
  let cmp = if descending then fun i j -> cmp_keys j i else cmp_keys in
  let idx = Array.init t.nrows (fun i -> i) in
  Array.stable_sort cmp idx;
  of_columns t.schema (Array.map (fun c -> Column.gather c idx) cols)

(* the byte cache survives sorting: encoding is permutation-invariant *)
let sort_with t cmp =
  let sorted = of_rows t.schema (sort_rows_with cmp (rows t)) in
  sorted.bytes <- t.bytes;
  sorted

let sort_by ?(descending = false) t names =
  if Column.enabled () then begin
    let sorted = columnar_sort_by ~descending t names in
    sorted.bytes <- t.bytes;
    sorted
  end
  else begin
    let idxs = List.map (Schema.index_of t.schema) names in
    let cmp a b =
      let rec go = function
        | [] -> 0
        | i :: rest -> (
          match Value.compare a.(i) b.(i) with
          | 0 -> go rest
          | c -> c)
      in
      go idxs
    in
    let cmp = if descending then fun a b -> cmp b a else cmp in
    sort_with t cmp
  end

let pp_rows ppf t limit =
  Format.fprintf ppf "%a@." Schema.pp t.schema;
  let n = min limit (row_count t) in
  let rs = rows t in
  for i = 0 to n - 1 do
    let row = rs.(i) in
    Array.iteri
      (fun j v ->
         if j > 0 then Format.fprintf ppf " | ";
         Value.pp ppf v)
      row;
    Format.pp_print_newline ppf ()
  done;
  if row_count t > n then
    Format.fprintf ppf "... (%d rows total)@." (row_count t)

let pp ppf t = pp_rows ppf t max_int

let pp_sample ~n ppf t = pp_rows ppf t n
