#!/usr/bin/env python3
"""Regenerate the hand-written parse fixtures.

Each parse is specified as 'surface/TAG' tokens plus (dep, governor,
dependent) triples; glosses are filled in from the token list and the result
is validated through the real ingestion path before being written.
"""

import json
from pathlib import Path

from presup.ingest import parse_conllu, parse_stanford_json

HERE = Path(__file__).parent


def parse_obj(sent_id, headline, spec, edges):
    tokens = []
    for i, item in enumerate(spec.split(), start=1):
        surface, pos = item.rsplit("/", 1)
        tokens.append({"index": i, "word": surface.replace("_", " "), "pos": pos})
    surfaces = {t["index"]: t["word"] for t in tokens}
    deps = []
    for dep, gov, dependent in edges:
        deps.append(
            {
                "dep": dep,
                "governor": gov,
                "governorGloss": "ROOT" if gov == 0 else surfaces[gov],
                "dependent": dependent,
                "dependentGloss": surfaces[dependent],
            }
        )
    obj = {
        "sent_id": sent_id,
        "headline": headline,
        "tokens": tokens,
        "dependencies": deps,
    }
    parse_stanford_json(obj)  # raises if malformed
    return obj


BASIC_TRIGGERS = [
    parse_obj(
        "future",
        "Russian state television will not broadcast Olympics without national team",
        "Russian/JJ state/NN television/NN will/MD not/RB broadcast/VB Olympics/NNPS "
        "without/IN national/JJ team/NN",
        [
            ("amod", 3, 1),
            ("compound", 3, 2),
            ("nsubj", 6, 3),
            ("aux", 6, 4),
            ("neg", 6, 5),
            ("root", 0, 6),
            ("dobj", 6, 7),
            ("case", 10, 8),
            ("amod", 10, 9),
            ("nmod", 6, 10),
        ],
    ),
    parse_obj(
        "but",
        "Olympics-It's ready but will they come?",
        "Olympics/NNP It/PRP 's/VBZ ready/JJ but/CC will/MD they/PRP come/VB",
        [
            ("dep", 4, 1),
            ("nsubj", 4, 2),
            ("cop", 4, 3),
            ("root", 0, 4),
            ("cc", 4, 5),
            ("aux", 8, 6),
            ("nsubj", 8, 7),
            ("conj", 4, 8),
        ],
    ),
    parse_obj(
        "again",
        'Norway regulator again rejects "Donut" fish farm volume plan',
        "Norway/NNP regulator/NN again/RB rejects/VBZ Donut/NNP fish/NN farm/NN "
        "volume/NN plan/NN",
        [
            ("compound", 2, 1),
            ("nsubj", 4, 2),
            ("advmod", 4, 3),
            ("root", 0, 4),
            ("compound", 9, 5),
            ("compound", 9, 6),
            ("compound", 9, 7),
            ("compound", 9, 8),
            ("dobj", 4, 9),
        ],
    ),
    parse_obj(
        "further",
        "UK economy to slow further",
        "UK/NNP economy/NN to/TO slow/VB further/RB",
        [
            ("compound", 2, 1),
            ("nsubj", 4, 2),
            ("mark", 4, 3),
            ("root", 0, 4),
            ("advmod", 4, 5),
        ],
    ),
    parse_obj(
        "compound",
        "Russia's Olympic ban strengthens Putin's reelection hand",
        "Russia/NNP 's/POS Olympic/NNP ban/NN strengthens/VBZ Putin/NNP 's/POS "
        "reelection/NN hand/NN",
        [
            ("nmod:poss", 4, 1),
            ("case", 1, 2),
            ("compound", 4, 3),
            ("nsubj", 5, 4),
            ("root", 0, 5),
            ("nmod:poss", 9, 6),
            ("case", 6, 7),
            ("compound", 9, 8),
            ("dobj", 5, 9),
        ],
    ),
    parse_obj(
        "past",
        "The dude released this video before he went on a killing spree",
        "The/DT dude/NN released/VBD this/DT video/NN before/IN he/PRP went/VBD "
        "on/IN a/DT killing/NN spree/NN",
        [
            ("det", 2, 1),
            ("nsubj", 3, 2),
            ("root", 0, 3),
            ("det", 5, 4),
            ("dobj", 3, 5),
            ("mark", 8, 6),
            ("nsubj", 8, 7),
            ("advcl", 3, 8),
            ("case", 12, 9),
            ("det", 12, 10),
            ("compound", 12, 11),
            ("nmod", 8, 12),
        ],
    ),
    parse_obj(
        "nmod_of",
        "Bank of England plans rescue",
        "Bank/NNP of/IN England/NNP plans/VBZ rescue/NN",
        [
            ("nsubj", 4, 1),
            ("case", 3, 2),
            ("nmod", 1, 3),
            ("root", 0, 4),
            ("dobj", 4, 5),
        ],
    ),
]

BASIC_TRIGGERS_DATASET = """\
Russian state television will not broadcast Olympics without national team [source: Reuters February 06, 2018 01:00 PM IST]
Olympics-It's ready but will they come? [source: Reuters February 01, 2018 09:00 AM IST]
Norway regulator again rejects "Donut" fish farm volume plan [source: Reuters January 15, 2018 11:00 AM IST]
UK economy to slow further [source: BBC June 30, 2017 08:00 AM IST]
Russia's Olympic ban strengthens Putin's reelection hand [source: Reuters December 06, 2017 10:00 AM IST]
The dude released this video before he went on a killing spree [source: BBC May 25, 2014 10:00 AM IST]
Bank of England plans rescue [source: BBC July 01, 2016 07:00 AM IST]
"""

COMBINED = [
    parse_obj(
        "combined",
        "Britain takes step towards Brexit with repeal bill",
        "Britain/NNP takes/VBZ step/NN towards/IN Brexit/NNP with/IN repeal/NN bill/NN",
        [
            ("nsubj", 2, 1),
            ("root", 0, 2),
            ("dobj", 2, 3),
            ("case", 5, 4),
            ("nmod", 3, 5),
            ("case", 8, 6),
            ("compound", 8, 7),
            ("nmod", 2, 8),
        ],
    ),
]

COMBINED_DATASET = """\
Britain takes step towards Brexit with repeal bill [source: Reuters July 13, 2017 02:00 PM IST]
"""

LEXICAL_TRIGGERS = [
    parse_obj(
        "change_of_state_xcomp",
        "Britain continued to struggle with Brexit",
        "Britain/NNP continued/VBD to/TO struggle/VB with/IN Brexit/NNP",
        [
            ("nsubj", 2, 1),
            ("root", 0, 2),
            ("mark", 4, 3),
            ("xcomp", 2, 4),
            ("case", 6, 5),
            ("nmod", 4, 6),
        ],
    ),
    parse_obj(
        "change_of_state_cessation",
        "China has stopped stockpiling metals.",
        "China/NNP has/VBZ stopped/VBN stockpiling/VBG metals/NNS",
        [
            ("nsubj", 3, 1),
            ("aux", 3, 2),
            ("root", 0, 3),
            ("xcomp", 3, 4),
            ("dobj", 4, 5),
        ],
    ),
    parse_obj(
        "judging",
        "Trump blames financial market 'disruption' on Democrats",
        "Trump/NNP blames/VBZ financial/JJ market/NN disruption/NN on/IN Democrats/NNPS",
        [
            ("nsubj", 2, 1),
            ("root", 0, 2),
            ("amod", 5, 3),
            ("compound", 5, 4),
            ("dobj", 2, 5),
            ("case", 7, 6),
            ("nmod", 2, 7),
        ],
    ),
    parse_obj(
        "question_wh",
        "What's missing from your low carb breakfast?",
        "What/WP 's/VBZ missing/VBG from/IN your/PRP$ low/JJ carb/NN breakfast/NN",
        [
            ("nsubj", 3, 1),
            ("aux", 3, 2),
            ("root", 0, 3),
            ("case", 8, 4),
            ("nmod:poss", 8, 5),
            ("amod", 8, 6),
            ("compound", 8, 7),
            ("nmod", 3, 8),
        ],
    ),
    parse_obj(
        "question_yesno",
        "Are you living with mild or moderate depression?",
        "Are/VBP you/PRP living/VBG with/IN mild/JJ or/CC moderate/JJ depression/NN",
        [
            ("aux", 3, 1),
            ("nsubj", 3, 2),
            ("root", 0, 3),
            ("case", 8, 4),
            ("amod", 8, 5),
            ("cc", 7, 6),
            ("conj", 5, 7),
            ("nmod", 3, 8),
        ],
    ),
    parse_obj(
        "quotes",
        'Merkel says May\'s Brexit proposals "not the breakthrough".',
        "Merkel/NNP says/VBZ May's/NNP Brexit/NNP proposals/NNS not/RB the/DT "
        "breakthrough/NN",
        [
            ("nsubj", 2, 1),
            ("root", 0, 2),
            ("nmod:poss", 5, 3),
            ("compound", 5, 4),
            ("dobj", 2, 5),
            ("neg", 8, 6),
            ("det", 8, 7),
            ("ccomp", 2, 8),
        ],
    ),
    parse_obj(
        "iterative_goal",
        "HTC in talks with Micromax, Lava and Karbonn to return to Indian market",
        "HTC/NNP in/IN talks/NNS with/IN Micromax/NNP Lava/NNP and/CC Karbonn/NNP "
        "to/TO return/VB to/TO Indian/JJ market/NN",
        [
            ("dep", 3, 1),
            ("case", 3, 2),
            ("root", 0, 3),
            ("case", 5, 4),
            ("nmod", 3, 5),
            ("conj", 5, 6),
            ("cc", 8, 7),
            ("conj", 5, 8),
            ("mark", 10, 9),
            ("acl", 3, 10),
            ("case", 13, 11),
            ("amod", 13, 12),
            ("nmod", 10, 13),
        ],
    ),
    parse_obj(
        "iterative_unlisted",
        "BoE's Carney says will reassess outlook when there is Brexit clarity",
        "BoE's/NNP Carney/NNP says/VBZ will/MD reassess/VB outlook/NN when/WRB "
        "there/EX is/VBZ Brexit/NNP clarity/NN",
        [
            ("compound", 2, 1),
            ("nsubj", 3, 2),
            ("root", 0, 3),
            ("aux", 5, 4),
            ("ccomp", 3, 5),
            ("dobj", 5, 6),
            ("mark", 9, 7),
            ("expl", 9, 8),
            ("advcl", 5, 9),
            ("compound", 11, 10),
            ("nsubj", 9, 11),
        ],
    ),
    parse_obj(
        "factive_nominal",
        "Corbyn 'regrets' Labour MPs' resignations",
        "Corbyn/NNP regrets/VBZ Labour/NNP MPs/NNPS resignations/NNS",
        [
            ("nsubj", 2, 1),
            ("root", 0, 2),
            ("compound", 5, 3),
            ("compound", 5, 4),
            ("dobj", 2, 5),
        ],
    ),
    parse_obj(
        "implicative",
        "How Russia Managed to Destroy Saudi Arabia ?",
        "How/WRB Russia/NNP Managed/VBD to/TO Destroy/VB Saudi/NNP Arabia/NNP",
        [
            ("advmod", 3, 1),
            ("nsubj", 3, 2),
            ("root", 0, 3),
            ("mark", 5, 4),
            ("xcomp", 3, 5),
            ("compound", 7, 6),
            ("dobj", 5, 7),
        ],
    ),
    parse_obj(
        "temporal_nominal",
        "Britons were endlessly lied to during Brexit campaign",
        "Britons/NNPS were/VBD endlessly/RB lied/VBN to/TO during/IN Brexit/NNP "
        "campaign/NN",
        [
            ("nsubjpass", 4, 1),
            ("auxpass", 4, 2),
            ("advmod", 4, 3),
            ("root", 0, 4),
            ("dep", 4, 5),
            ("case", 8, 6),
            ("compound", 8, 7),
            ("nmod", 4, 8),
        ],
    ),
]

LEXICAL_TRIGGERS_DATASET = """\
Britain continued to struggle with Brexit [source: Reuters March 29, 2017 09:00 AM IST]
China has stopped stockpiling metals. [source: Reuters August 14, 2017 10:00 AM IST]
Trump blames financial market 'disruption' on Democrats [source: Reuters December 24, 2018 08:00 PM IST]
What's missing from your low carb breakfast? [source: BBC January 04, 2018 07:00 AM IST]
Are you living with mild or moderate depression? [source: BBC February 12, 2018 09:30 AM IST]
Merkel says May's Brexit proposals "not the breakthrough". [source: Reuters September 28, 2018 06:00 PM IST]
HTC in talks with Micromax, Lava and Karbonn to return to Indian market [source: The Hindu April 10, 2018 11:00 AM IST]
BoE's Carney says will reassess outlook when there is Brexit clarity [source: Reuters January 09, 2019 04:00 PM IST]
Corbyn 'regrets' Labour MPs' resignations [source: BBC June 27, 2016 01:00 PM IST]
How Russia Managed to Destroy Saudi Arabia ? [source: The Hindu October 05, 2017 03:00 PM IST]
Britons were endlessly lied to during Brexit campaign [source: Reuters July 17, 2018 12:00 PM IST]
"""

SCORED_GOLD = """\
IOC extends North Korea deadline for Pyeongchang games
>> IOC has power to extend deadline
>> North Korea has deadline
>> Deadline can be extended
>> There exists North Korea
>> There exists Pyeongchang games
||
Olympics: Medals at Winter Olympics through years
>> There exists Winter Olympics
>> Olympics has medals
>> Olympics had been happening through years
>> There exists medals in years Olympics was conducted
||
Schaeuble Says British were "deceived" in Brexit campaign
>> Schaeuble exists
>> Schaeuble believes that the British were "deceived" in Brexit campaign
>> Brexit can have campaign
>> Schaeuble said something.
>> Schaeuble believes that the British were 'deceived' in Brexit campaign.
>> Brexit campaign happened.
||
"""

SCORED_COMPUTED = [
    {
        "headline": "IOC extends North Korea deadline for Pyeongchang games",
        "inferences": [
            {"kind": ">>", "text": "Korea can have deadline", "trigger": "compound", "span": [3, 4]},
            {"kind": ">>", "text": "Pyeongchang has games", "trigger": "nmod_relaxed", "span": [7, 8]},
            {"kind": ">>", "text": "Games has deadline", "trigger": "nmod_relaxed", "span": [4, 8]},
        ],
    },
    {
        "headline": "Olympics: Medals at Winter Olympics through years",
        "inferences": [
            {"kind": ">>", "text": "Winter can have olympics", "trigger": "compound", "span": [4, 5]},
            {"kind": ">>", "text": "Olympics has medals", "trigger": "nmod_relaxed", "span": [2, 5]},
            {"kind": ">>", "text": "years had medals", "trigger": "nmod_relaxed", "span": [2, 7]},
        ],
    },
    {
        "headline": 'Schaeuble Says British were "deceived" in Brexit campaign',
        "inferences": [
            {"kind": "triple", "text": 'Schaeuble Says British were "deceived"', "trigger": "triple", "span": [1, 2, 3, 4, 5]},
            {"kind": ">>", "text": "Brexit can be/ can have campaign", "trigger": "compound", "span": [7, 8]},
            {"kind": ">>", "text": "campaign has deceived", "trigger": "nmod_relaxed", "span": [5, 8]},
        ],
    },
]

SCORED_LABELS = [
    {
        "headline": "IOC extends North Korea deadline for Pyeongchang games",
        "incorrect": [],
        "matched": [
            ["North Korea has deadline", "Korea can have deadline"],
            ["There exists Pyeongchang games", "Pyeongchang has games"],
        ],
    },
    {
        "headline": "Olympics: Medals at Winter Olympics through years",
        "incorrect": [],
        "matched": [
            ["There exists Winter Olympics", "Winter can have olympics"],
            ["There exists medals in years Olympics was conducted", "years had medals"],
        ],
    },
    {
        "headline": 'Schaeuble Says British were "deceived" in Brexit campaign',
        "incorrect": ["campaign has deceived"],
    },
]


def dump_json(path, payload):
    path.write_text(json.dumps(payload, indent=1, ensure_ascii=False) + "\n", "utf-8")


def conllu_document(parse_objs):
    """The same trees as CoNLL-U: Penn tags in XPOS, each token's edge on its
    own row, the sent_id and the headline as comments."""
    blocks = []
    for obj in parse_objs:
        edge_of = {d["dependent"]: d for d in obj["dependencies"]}
        lines = [f"# sent_id = {obj['sent_id']}", f"# text = {obj['headline']}"]
        for t in obj["tokens"]:
            d = edge_of[t["index"]]
            lines.append(
                f"{t['index']}\t{t['word']}\t_\t_\t{t['pos']}\t_\t{d['governor']}\t{d['dep']}\t_\t_"
            )
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)


def dump_jsonl(path, rows):
    path.write_text(
        "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows), "utf-8"
    )


def main():
    dump_json(HERE / "basic_triggers.json", BASIC_TRIGGERS)
    conllu = conllu_document(BASIC_TRIGGERS)
    parse_conllu(conllu)  # raises if malformed
    (HERE / "basic_triggers.conllu").write_text(conllu, "utf-8")
    (HERE / "basic_triggers_dataset.txt").write_text(BASIC_TRIGGERS_DATASET, "utf-8")
    dump_json(HERE / "combined.json", COMBINED)
    (HERE / "combined_dataset.txt").write_text(COMBINED_DATASET, "utf-8")
    dump_json(HERE / "lexical_triggers.json", LEXICAL_TRIGGERS)
    (HERE / "lexical_triggers_dataset.txt").write_text(LEXICAL_TRIGGERS_DATASET, "utf-8")
    (HERE / "scored_gold.txt").write_text(SCORED_GOLD, "utf-8")
    dump_jsonl(HERE / "scored_computed.jsonl", SCORED_COMPUTED)
    dump_jsonl(HERE / "scored_labels.jsonl", SCORED_LABELS)
    print("fixtures written")


if __name__ == "__main__":
    main()
