"""Simulated origin servers: static sites, the 20 Table-1 sites, the
map service, and the session-protected shop."""

from .mapservice import MAP_HOST, MapPageDriver, MapService, VIEWPORT_TILES
from .pagegen import GeneratedSite, generate_site
from .server import OriginServer, StaticSite
from .shop import Product, SHOP_HOST, ShopService
from .sites import (
    SiteSpec,
    TABLE1_SITES,
    deploy_table1_sites,
    generate_table1_site,
)

__all__ = [
    "GeneratedSite",
    "MAP_HOST",
    "MapPageDriver",
    "MapService",
    "OriginServer",
    "Product",
    "SHOP_HOST",
    "ShopService",
    "SiteSpec",
    "StaticSite",
    "TABLE1_SITES",
    "VIEWPORT_TILES",
    "deploy_table1_sites",
    "generate_site",
    "generate_table1_site",
]
