module Tree = Wp_xml.Tree
module Printer = Wp_xml.Printer

type profile = {
  p_description_parlist : float;
  p_parlist_recursion : float;
  max_parlist_depth : int;
  min_listitems : int;
  max_listitems : int;
  p_mailbox : float;
  min_mails : int;
  max_mails : int;
  p_mail_text : float;
  p_text_bold : float;
  p_text_keyword : float;
  p_text_emph : float;
  p_incategory : float;
  max_incategories : int;
  p_item_name : float;
  regions : string array;
  people_per_item : float;
}

let default_profile =
  {
    p_description_parlist = 0.7;
    p_parlist_recursion = 0.35;
    max_parlist_depth = 4;
    min_listitems = 1;
    max_listitems = 3;
    p_mailbox = 0.85;
    min_mails = 0;
    max_mails = 4;
    p_mail_text = 0.8;
    p_text_bold = 0.45;
    p_text_keyword = 0.4;
    p_text_emph = 0.3;
    p_incategory = 0.75;
    max_incategories = 3;
    p_item_name = 0.9;
    regions = [| "africa"; "asia"; "australia"; "europe"; "namerica"; "samerica" |];
    people_per_item = 0.4;
  }

(* Skewed profiles: a corpus mixing one [rich_profile] document with
   several [sparse_profile] documents has one document that dominates
   the merged top-k. *)
let rich_profile =
  {
    default_profile with
    p_description_parlist = 0.9;
    p_parlist_recursion = 0.7;
    max_parlist_depth = 4;
    min_listitems = 2;
    max_listitems = 5;
    p_mailbox = 0.95;
    min_mails = 2;
    max_mails = 5;
    p_mail_text = 0.95;
    p_text_bold = 0.8;
    p_text_keyword = 0.8;
    p_incategory = 0.95;
    max_incategories = 4;
    p_item_name = 0.95;
  }

let sparse_profile =
  {
    default_profile with
    p_description_parlist = 0.03;
    p_parlist_recursion = 0.05;
    max_parlist_depth = 2;
    p_mailbox = 0.1;
    min_mails = 1;
    max_mails = 1;
    p_mail_text = 0.3;
    p_text_bold = 0.05;
    p_text_keyword = 0.05;
    p_incategory = 0.15;
    max_incategories = 1;
    p_item_name = 0.5;
  }

let profile_of_string = function
  | "default" -> Some default_profile
  | "rich" -> Some rich_profile
  | "sparse" -> Some sparse_profile
  | _ -> None

(* A [text] element: prose plus optional bold/keyword/emph children, as in
   XMark's mixed content. *)
let text p rng =
  let markup = ref [] in
  if Rng.bool rng p.p_text_emph then
    markup := Tree.leaf "emph" (Vocabulary.sentence rng ~min_words:1 ~max_words:3) :: !markup;
  if Rng.bool rng p.p_text_keyword then
    markup := Tree.leaf "keyword" (Rng.pick rng Vocabulary.keywords) :: !markup;
  if Rng.bool rng p.p_text_bold then
    markup := Tree.leaf "bold" (Vocabulary.sentence rng ~min_words:1 ~max_words:4) :: !markup;
  Tree.el_v "text" (Vocabulary.sentence rng ~min_words:4 ~max_words:14) !markup

let rec parlist p rng depth =
  let n_items = Rng.in_range rng p.min_listitems p.max_listitems in
  let listitem _ =
    let body =
      if depth < p.max_parlist_depth && Rng.bool rng p.p_parlist_recursion then
        parlist p rng (depth + 1)
      else text p rng
    in
    Tree.el "listitem" [ body ]
  in
  Tree.el "parlist" (List.init n_items listitem)

let description p rng =
  let body =
    if Rng.bool rng p.p_description_parlist then parlist p rng 1
    else text p rng
  in
  Tree.el "description" [ body ]

let mail p rng =
  let body = if Rng.bool rng p.p_mail_text then [ text p rng ] else [] in
  Tree.el "mail"
    (Tree.leaf "from" (Vocabulary.email rng)
    :: Tree.leaf "to" (Vocabulary.email rng)
    :: Tree.leaf "date" (Vocabulary.date rng)
    :: body)

let item p rng =
  let fields = ref [] in
  let add t = fields := t :: !fields in
  if Rng.bool rng p.p_incategory then
    for _ = 1 to Rng.in_range rng 1 p.max_incategories do
      add (Tree.el "incategory" [ Tree.leaf "@category" (Rng.pick rng Vocabulary.categories) ])
    done;
  if Rng.bool rng p.p_mailbox then begin
    let n = Rng.in_range rng p.min_mails p.max_mails in
    add (Tree.el "mailbox" (List.init n (fun _ -> mail p rng)))
  end;
  add (Tree.leaf "shipping" "will ship internationally");
  add (description p rng);
  add (Tree.leaf "payment" "money order, personal check");
  if Rng.bool rng p.p_item_name then
    add (Tree.leaf "name" (Vocabulary.sentence rng ~min_words:2 ~max_words:4));
  add (Tree.leaf "quantity" (string_of_int (Rng.in_range rng 1 9)));
  add (Tree.leaf "location" (Rng.pick rng Vocabulary.cities));
  Tree.el "item" !fields

let person rng =
  Tree.el "person"
    [
      Tree.leaf "name" (Vocabulary.person_name rng);
      Tree.leaf "emailaddress" (Vocabulary.email rng);
      Tree.el "address"
        [
          Tree.leaf "city" (Rng.pick rng Vocabulary.cities);
          Tree.leaf "country" (Vocabulary.sentence rng ~min_words:1 ~max_words:1);
        ];
    ]

let category rng =
  Tree.el "category"
    [
      Tree.leaf "name" (Vocabulary.sentence rng ~min_words:1 ~max_words:3);
      Tree.el "description" [ Tree.el_v "text" (Vocabulary.sentence rng ~min_words:3 ~max_words:8) [] ];
    ]

let rec tree_bytes (t : Tree.t) =
  (* Mirrors Printer.tree_to_buffer, including '@'-children rendered as
     attributes. *)
  let is_attr (c : Tree.t) =
    String.length c.tag > 1 && c.tag.[0] = '@' && c.children = []
  in
  let attrs, elements = List.partition is_attr t.children in
  let attr_bytes =
    List.fold_left
      (fun acc (a : Tree.t) ->
        acc + String.length a.tag + 3
        + match a.value with Some v -> Printer.escaped_length v | None -> 0)
      0 attrs
  in
  let tl = String.length t.tag in
  match (t.value, elements) with
  | None, [] -> tl + 3 + attr_bytes
  | v, cs ->
      (2 * tl) + 5 + attr_bytes
      + (match v with Some s -> Printer.escaped_length s | None -> 0)
      + List.fold_left (fun acc c -> acc + tree_bytes c) 0 cs

let generate ?(profile = default_profile) ~seed ~target_bytes () =
  let rng = Rng.create seed in
  let n_regions = Array.length profile.regions in
  let region_items = Array.make n_regions [] in
  (* Fixed scaffolding: categories plus the site/regions skeleton. *)
  let categories = List.init 16 (fun _ -> category rng) in
  let people = ref [] in
  let skeleton_bytes =
    List.fold_left (fun acc c -> acc + tree_bytes c) 0 categories
    + ((2 * String.length "site") + 5)
    + ((2 * String.length "regions") + 5)
    + ((2 * String.length "categories") + 5)
    + ((2 * String.length "people") + 5)
    + Array.fold_left
        (fun acc r -> acc + (2 * String.length r) + 5)
        0 profile.regions
  in
  let bytes = ref skeleton_bytes in
  let person_budget = ref 0.0 in
  let i = ref 0 in
  while !bytes < target_bytes do
    let it = item profile rng in
    let r = !i mod n_regions in
    region_items.(r) <- it :: region_items.(r);
    bytes := !bytes + tree_bytes it;
    person_budget := !person_budget +. profile.people_per_item;
    while !person_budget >= 1.0 do
      let pe = person rng in
      people := pe :: !people;
      bytes := !bytes + tree_bytes pe;
      person_budget := !person_budget -. 1.0
    done;
    incr i
  done;
  let regions =
    Tree.el "regions"
      (Array.to_list
         (Array.mapi
            (fun r name -> Tree.el name (List.rev region_items.(r)))
            profile.regions))
  in
  Tree.el "site"
    [
      regions;
      Tree.el "categories" categories;
      Tree.el "people" (List.rev !people);
    ]

let generate_doc ?profile ~seed ~target_bytes () =
  Wp_xml.Doc.of_tree (generate ?profile ~seed ~target_bytes ())

let tag_histogram doc =
  let counts = Hashtbl.create 64 in
  for i = 0 to Wp_xml.Doc.size doc - 1 do
    let tag = Wp_xml.Doc.tag doc i in
    Hashtbl.replace counts tag (1 + Option.value (Hashtbl.find_opt counts tag) ~default:0)
  done;
  List.sort
    (fun (_, a) (_, b) -> Stdlib.compare b a)
    (Hashtbl.fold (fun tag c acc -> (tag, c) :: acc) counts [])
