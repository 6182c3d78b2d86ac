"""Bit pins of the transmit correlation.

``build_correlation_matrix`` feeds every closed form and the simulator, so
a rewrite of its PAS integration must keep every byte of its output. These
SHA-256 digests of ``r_t.tobytes()`` (signed zeros included) cover the B1
and A1 presets at n_t = 1-12 and ten custom specs at n_t = 2-8: spreads
2-60 deg, centers -30 to 30 deg and spacings 0.5-2 half-wavelengths.
"""

import hashlib

import pytest

from zfrician.channel import FadingSpec, build_correlation_matrix, preset

# name -> (azimuth_spread_deg, center_azimuth_deg, antenna_spacing_halfwavelengths)
CUSTOM = {
    "as2_c0_d1": (2.0, 0.0, 1.0),
    "as5_cm30_d05": (5.0, -30.0, 0.5),
    "as8_c30_d2": (8.0, 30.0, 2.0),
    "as12_c15_d075": (12.0, 15.0, 0.75),
    "as20_cm10_d15": (20.0, -10.0, 1.5),
    "as25_c5_d1": (25.0, 5.0, 1.0),
    "as33_cm22_d125": (33.0, -22.5, 1.25),
    "as40_c30_d05": (40.0, 30.0, 0.5),
    "as51_cm30_d2": (51.0, -30.0, 2.0),
    "as60_c0_d1": (60.0, 0.0, 1.0),
}

# name -> n_t -> sha256(build_correlation_matrix(spec, n_t).tobytes())
PINS = {
    "B1": {
        1: "3239b05c38b825ebb79f103172438292a22a0951351a6b81be1df5d44776cc65",
        2: "960db15d808ae15612a6b38e022d85dea6e975b98e51e8223c8a868d676b2c59",
        3: "b9be447ab78b223c289ff374a3a3c1c1d841c6a9324cb674037d1841dab64831",
        4: "b54f3db8f105ae474828383d57ad2cae2395459b29934f43ddce4ac0e946597e",
        5: "6ad166986737a9035d5c423560f4a56f5aafb6b52de794ecc60c9ccbffb4c697",
        6: "ef28228bfffb76e36393a56f5add03166ac11a9521c86d4283a24e072d4fe153",
        7: "2dea7a104038cb5682c7827ec654ca16b7418bcfa97e607f823867577dcb57fd",
        8: "4764872450535e43368f01c00caec703a40bfd72563ef4239c804a149e907f88",
        9: "9471597fb87f6299ad5a30cf0960e4a41d08de0e72848ae340909eadb3db9295",
        10: "9057bd8dbdd388153a0c30d541e383c3d8c264599ce88b85fca02b5697dbce59",
        11: "437837656fca47642119d4aea2ced624718d7f9f6cace0c76e5f791a411ceb48",
        12: "87bd0f9258c72430a55e23209936e89cb0bcec284b1410a3658662ca04edef4c",
    },
    "A1": {
        1: "3239b05c38b825ebb79f103172438292a22a0951351a6b81be1df5d44776cc65",
        2: "52bd4b1f9ef1afb6852c2886933cfefdd203f82bdaaf087c6681a1634083d7ed",
        3: "ee3cbe1ddd1697d2c8251e27e976b08c77b0fbe7f8ebf55e367f81b556e2dca0",
        4: "cab124e833bfb43d77d771109cf37ad167f4bd46ded9176ca2f3f5b511fc3338",
        5: "ef41dd782b6c50a89ac4f81e82cca017e4b3dd20fe97168e179aaeeae3b01dd1",
        6: "edc78ca7e4dbd04da27292f0d28f846881b9c422deced15d9ae301b3d0b2322a",
        7: "035669b65f5828d12b658392cf7ab961657033ce9d2f23ab09a0a5d68246282c",
        8: "a57306264ce126f53307a84f4d1f6a3763db1628e48d91b292ae8d286698ab1b",
        9: "4c6970894f34de8e7143c48cb967f99302468cbb501537f740d8a73dc7537fea",
        10: "b88d2a0ea174cb8db886efdde09e431f8b806d31328774a2091b0aa7312933fc",
        11: "2bc766ba547f660d15c240ed15d5187a70aff8ded285b006b61099a813f9a602",
        12: "057f909dc6f3eb459c17c2f9c4a61ff989341463a0f8430eb88aae85217b27d7",
    },
    "as2_c0_d1": {
        2: "a9baf230ee307abc76aa0cfb357a382016840e481fc455ef57339ce2628ee98c",
        3: "0127635635063965160e8c04726dc3d8c3e9153183e61cf2d2d48ece02e05ce7",
        4: "26d68d1213566954340e28b54809253f3e2f321434f976bc8b50174fc697050a",
        6: "3cde501d9e9f82eb896637b659ae081cf282882370419f73f9ae0e93b6ca157f",
        8: "31a864aab7ae2e6b59d352d44708edda4171c83d50a0e6d1deb571073988ec5d",
    },
    "as5_cm30_d05": {
        2: "e20eb57cd142ef467d793fbc5d70d0d5b8fa65bc58eda6cbf1f8e8690fbbacfb",
        3: "454160e4d06f4c8e46e564339cb9cb3f43b8d8760fab2732219cbaad5546dccf",
        4: "f5a3cf5ce85a35f6d8ea2188997c2fd9053578413f1af3669f0d6a25b78b579f",
        6: "6996e8e72eafc9d76868ade95f4b10366f0ca14ae7e3d4ecf359c8895baf46ac",
        8: "47a6e09f9bb28910d8958079053bc8dc84517dc97859ede18ca261fab55157bc",
    },
    "as8_c30_d2": {
        2: "b85f2a5aece1213f1b807fe7eabcba15a267e783ceac59454f599604b6627b9c",
        3: "1274fa3586f123765f7597c7cb7af1f7f03a1dbb63c3f4c3cb567e725156589b",
        4: "bb35155274db28b197f21ef556ff76035ed198d446f4aed2c50f0faf83099c97",
        6: "a01f2037829301a8d4b7d28c6a7ec8fff3f59a563b0952f0b363fef9f87bd082",
        8: "5a775b55b472d63038b00752c5935784d98e2f24e4a89fa40786827eb98cf182",
    },
    "as12_c15_d075": {
        2: "da57737083bc093132de53bd511767b0ff6f39de36802f4fdaa0be334ac7e312",
        3: "dca2c6298565c539b9d3c61627085b5140e3d27466fa17e0f600ad2efe13910d",
        4: "b427e5e27e41b24899c6d4872e2d24253376ab89c2848acfca63c781586697a8",
        6: "9ca7b2047050cabbbd50141486eacdf0f2caed80ab89cad4d49f6562a5f76ab3",
        8: "34f994f024aa3605f0e180bb9ed6338ede642b66c82ee73615be5755788e7c98",
    },
    "as20_cm10_d15": {
        2: "03871617caf17e77b291f610a05bcc0f0d8b8610c20c070c28262a4b83714d43",
        3: "c88e2a88db29c3e451e123cdb4f87a8e4c476b01735351b5abd31c57a20e4df3",
        4: "fe01382f7e875fd203cfacf8174cad3b9fe1937f01c7c7770b9ac0f46531baf4",
        6: "87d5dae0e13d98d579b0e753481f2ea3738ecb863ccd5afc6c0376d8744b8e57",
        8: "bb8cf9105743f2eca751fa514fdda41100bc4cdfc2104d518bf6a4c5163c4f82",
    },
    "as25_c5_d1": {
        2: "c1605b59b57bef81ef3f1541e92301c36ea9f6777b3b09bcee38cd2b94d35673",
        3: "74e42641754797a089e580f9b3e9409681499d100675e7dfeea6f9a418f1bb22",
        4: "e1d261c3c7dbd4052f637e2cc71654e9fb0706b152059ef0c5229b1d12ad457f",
        6: "2736ce10317a9603149531e491adda255ef5cdc9b907588773369a5584e50283",
        8: "ed8412abcb68ce3f515de906ec5a122cb9386bcff0f79a70d023feae178ad1ba",
    },
    "as33_cm22_d125": {
        2: "9275c1a57e71e1b9a96c47d8293a5a9f0d8c86d59f527b5450aa03a9dfd0f936",
        3: "7701aff3aa33eb7b88465398b91e63053877e47e6a588c5d932f668df121fc21",
        4: "f4ff063136b35a32b1015181a9ff2a13d7f18e5172d29392bc716ab08268e691",
        6: "0c26104b1e2a0d13b0639958442519131dc66db0c84664e422565f2889749764",
        8: "4fdb5371a8e5cbcb9dcafb2148adc900a75b3caf89e9344ccb4f3b432483a484",
    },
    "as40_c30_d05": {
        2: "07950e10f8104b329b2e5dee55b988e549c45800c2ce302cef8edce0a7363441",
        3: "3f872709be87c53e08196860beb9e7985d9640622f2416f5ead724afeaefc0b3",
        4: "d9cbfed928ba043405909e3940db37494eea76be755a34757b71b32e9c78f89e",
        6: "a23009d9cf6df4d5cf7317e9241cd34002c5f477fb3e4de2825cdc0bb7c24d6d",
        8: "ce2eb63ebefa649862b51f677153d6bdb8e28c17ecabe4e14a4ba7ca85b59278",
    },
    "as51_cm30_d2": {
        2: "9223f1472bb17eb1a4250771fea51ccbbb261b610ff2791bbda22ec78ec98a8d",
        3: "3134d4c26a69d01b2a9012d67d27c5666d244d761ba689363f4175fb3cd9b1b8",
        4: "21c58f10fa10fef0373d77d1c5c68d5b236670ed8b6184f225c385fb0e2533bd",
        6: "58bc19ef2adf01e3609f8890d5c7cbd6711beafadbc6c17ff4860f047b19d44e",
        8: "7f441d03c0f543faa2425742fd70ad861966b1e3c4178a9291478cfc531e557f",
    },
    "as60_c0_d1": {
        2: "9648fce9ef78838afde77639a97ca09793df0aad7d9be8ecda3940a0fa4358dc",
        3: "8c3aba84873b481ea78855eaf3703f7149aaf09bef39e038d6b4788ed955d812",
        4: "fe8202bf80c8f3ef682f51436ff714e817bd6b193c214e1e8a839c5719d898d6",
        6: "a536069de3b7e197f6acdd43d4f334624404d45a1edcf0b9db61047f50edd646",
        8: "0940f7382e4bafceebcb81c1ad33a3152b882a47bc0c82ed58c9e2e3e2c987b4",
    },
}


def spec_named(name):
    if name in CUSTOM:
        return FadingSpec(1.0, *CUSTOM[name])
    return preset(name)


@pytest.mark.parametrize("name", list(PINS))
def test_correlation_bits(name):
    spec = spec_named(name)
    got = {n_t: hashlib.sha256(build_correlation_matrix(spec, n_t).tobytes()).hexdigest() for n_t in PINS[name]}
    assert got == PINS[name]
